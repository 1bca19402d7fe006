"""The compiled march kernels (solver/march.c) against the numpy reference.

The kernels must be bitwise the numpy functions they replace.  The
comparisons run in a subprocess with a time limit, so a kernel that
loops forever fails the test instead of hanging the suite.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from kfplab.solver import march

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler cc on PATH")

# Prints how many of the cases differ from the numpy reference, for the
# kernels built with the flags given as arguments.
COMPARE = textwrap.dedent("""
    import sys
    import numpy as np
    from kfplab.solver import march

    transport, v_solver = march._compiled(march._library(tuple(sys.argv[1:])))
    rng = np.random.default_rng(7)
    differ = 0

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    # shifts of up to three periods either way, rows of 1 to 3 cells
    for nv, nx in [(1, 1), (3, 1), (5, 2), (6, 3), (4, 4), (9, 5),
                   (16, 17), (32, 64), (7, 200)]:
        k = rng.integers(-3 * nx - 5, 3 * nx + 6, nv)
        weights = list(rng.normal(size=(4, nv)))
        f = rng.normal(size=(nv, nx))
        differ += not same(transport(k, weights, nx)(f),
                           march._transport(k, weights, nx)(f))
        # factors broadcast, as _v_factors broadcasts them, from one row,
        # one column, scalars, or (a constant source) beside full ones
        for shapes in ([(nv, nx)] * 4, [(1, nx)] * 4, [(nv, 1)] * 4,
                       [()] * 4, [(nv, nx)] * 3 + [()]):
            lower, denom, cp, ds = (rng.normal(size=s) for s in shapes)
            factors = [np.broadcast_to(a, (nv, nx))
                       for a in (lower, np.abs(denom) + 1.0, cp, ds)]
            differ += not same(v_solver(*factors)(f),
                               march._v_solver(*factors)(f))
    print(differ)
""")


def _differing_cases(flags, tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": str(Path(march.__file__).parents[2])}
    proc = subprocess.run([sys.executable, "-c", COMPARE, *flags],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@needs_cc
def test_kernels_are_bitwise_the_numpy_reference(tmp_path):
    assert _differing_cases(march.CFLAGS, tmp_path) == 0


def _has_fma():
    try:
        return " fma " in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


@needs_cc
@pytest.mark.skipif(not _has_fma(), reason="the CPU has no FMA")
def test_contracted_kernels_are_caught(tmp_path):
    # fused multiply-adds round once where numpy rounds twice
    flags = ("-O3", "-ffp-contract=fast", "-march=native", "-shared",
             "-fPIC")
    assert _differing_cases(flags, tmp_path) > 0


def test_the_flags_never_fuse_or_tune_to_one_cpu():
    assert "-ffp-contract=off" in march.CFLAGS
    assert not any(flag.startswith(("-ffast-math", "-march", "-mtune",
                                    "-Ofast"))
                   for flag in march.CFLAGS)


@needs_cc
def test_solve_uses_the_compiled_kernels_where_cc_exists():
    assert march.march_path() == "compiled"


@pytest.mark.parametrize("case", ["no-compiler", "unwritable-cache",
                                  "failed-build"])
def test_solve_falls_back_to_numpy_silently(case, tmp_path, monkeypatch,
                                            capfd):
    if case == "no-compiler":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif case == "unwritable-cache":  # a file where the directory goes
        (tmp_path / "kfplab").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    else:
        source = tmp_path / "march.c"
        source.write_text("this is not C\n")
        monkeypatch.setattr(march, "_SOURCE", source)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(march, "_march_kernels",
                        march._march_kernels.__wrapped__)
    assert march.march_path() == "numpy"
    assert capfd.readouterr() == ("", "")


def _load_and_check():
    """Exits 0 when march._library loads kernels equal to numpy's."""
    transport, v_solver = march._compiled(march._library())
    rng = np.random.default_rng(3)
    k = rng.integers(-9, 10, 8)
    weights = list(rng.normal(size=(4, 8)))
    f = rng.normal(size=(8, 12))
    ok = np.array_equal(transport(k, weights, 12)(f),
                        march._transport(k, weights, 12)(f))
    sys.exit(0 if ok else 1)


@needs_cc
def test_processes_building_into_one_empty_cache_each_load_it(
        tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fork = multiprocessing.get_context("fork")
    procs = [fork.Process(target=_load_and_check) for _ in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0]
    # one library, and no temporary file left behind
    assert [p.suffix for p in (tmp_path / "kfplab").iterdir()] == [".so"]
