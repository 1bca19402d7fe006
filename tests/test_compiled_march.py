"""The compiled kernels (solver/march.c and solver/weak.c) against the
numpy reference, and the loader that builds them into one library.

The kernels must be bitwise the numpy functions they replace.  The
comparisons run in a subprocess with a time limit, so a kernel that
loops forever fails the test instead of hanging the suite.
"""

import ctypes
import fnmatch
import functools
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from kfplab.solver import march
from kfplab.solver.coefficients import make_rough_coefficients
from kfplab.solver.grid import Box
from kfplab.solver.march import solve
from kfplab.solver.weak import weak_basis, weak_residual

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler cc on PATH")

# Prints how many of the march cases and of the weak residual cases
# differ from the numpy reference, for the kernels built with the flags
# given as arguments.
COMPARE = textwrap.dedent("""
    import sys
    import numpy as np
    from kfplab.solver import march, weak
    from kfplab.solver.grid import GridFunction, centered_axis

    lib = march._library(tuple(sys.argv[1:]))
    transport, v_solver = march._compiled(lib)
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

    class Field:
        # random A, B and S over the sampled arguments named by axes
        # (0, 1, 2: t, x, v; none: a scalar), once per time cell of
        # width cell, or per slice if cell is 0
        def __init__(self, axes=(1, 2), cell=0.25):
            self.axes, self.cell = axes, cell

        def time_cell(self, t):
            return t if self.cell == 0 else np.floor(t / self.cell)

        def sample(self, t, x, v):
            tx = (t, x, v)
            return rng.normal(size=np.broadcast_shapes(
                *(np.shape(tx[i]) for i in self.axes)))

        diffusion = drift = source = sample

    def grid(nt, nx, nv, pad_x=0.0, values=None):
        times = np.linspace(0.0, 1.0, nt)
        xs, vs = centered_axis(-1.0, 1.0, nx), centered_axis(-1.0, 1.0, nv)
        if values is None:
            values = rng.normal(size=(nt, nx, nv))
        return GridFunction(times, xs, vs, values, pad_x=pad_x)

    def one_cell(f):
        # a bump holding one cell on each axis, at a cell inside f
        i, j, k = (a.size // 2 for a in (f.times, f.xs, f.vs))
        return weak.TestBump((f.times[i], f.xs[j], f.vs[k]),
                             (0.6 * f.dt, 0.6 * f.dx, 0.6 * f.dv))

    f = grid(7, 12, 10)
    cases = [
        # a window clipped in x, so values is a strided view
        (grid(9, 16, 12, pad_x=0.3), Field(), None),
        # bumps reaching both v walls, where the margin is clipped
        (f, Field(), None),
        # a v window of 2 cells: no interior velocity gradient
        (grid(7, 12, 2), Field(), None),
        # bumps one cell wide on each axis, beside a wide one
        (f, Field(), [one_cell(f), weak.TestBump((0.5, 0.0, 0.0),
                                                 (0.4, 0.5, 0.5))]),
        # constant fields, and fields of v only, broadcast on the window
        (f, Field(axes=()), None),
        (f, Field(axes=(2,)), None),
        # every slice its own time cell
        (grid(9, 16, 12, pad_x=0.3), Field(cell=0), None),
        # values that are a zero-stride broadcast in v
        (grid(7, 12, 10, values=np.broadcast_to(
            rng.normal(size=(7, 12, 1)), (7, 12, 10))), Field(), None),
    ]
    weak_differ = 0
    for f, field, phis in cases:
        basis = weak.weak_basis(f, field, phis)
        betas = weak.default_hinges(*f.extrema)[::4]
        for negate in (False, True):
            sums = [np.array([hinge(beta) for beta in betas])
                    for hinge in (weak._compiled_sums(lib, basis, negate),
                                  weak._numpy_sums(basis, negate))]
            weak_differ += not same(*sums)
    print(differ, weak_differ)
""")


def _differing_cases(flags, tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": str(Path(march.__file__).parents[2])}
    proc = subprocess.run([sys.executable, "-c", COMPARE, *flags],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    march_cases, weak_cases = map(int, proc.stdout.split())
    return march_cases, weak_cases


@needs_cc
def test_kernels_are_bitwise_the_numpy_reference(tmp_path):
    assert _differing_cases(march.CFLAGS, tmp_path) == (0, 0)


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
    march_cases, weak_cases = _differing_cases(flags, tmp_path)
    assert march_cases > 0 and weak_cases > 0


def test_the_flags_never_fuse_or_tune_to_one_cpu():
    assert "-ffp-contract=off" in march.CFLAGS
    assert not any(flag.startswith(("-ffast-math", "-march", "-mtune",
                                    "-Ofast"))
                   for flag in march.CFLAGS)


@needs_cc
def test_solve_uses_the_compiled_kernels_where_cc_exists():
    assert march.kernel_path() == "compiled"


def test_every_kernel_source_is_package_data():
    # an installed kfplab that lacked a source would silently run numpy
    tomllib = pytest.importorskip("tomllib")
    package = Path(march.__file__).parents[1]
    pyproject = package.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("kfplab is not run from its source tree")
    globs = tomllib.loads(pyproject.read_text())[
        "tool"]["setuptools"]["package-data"]["kfplab"]
    for source in march._SOURCES:
        name = source.relative_to(package).as_posix()
        assert any(fnmatch.fnmatch(name, glob) for glob in globs), name


# the ctypes type of a C parameter of a kernel: every pointer is passed
# as an address
_C_TYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}


def _prototypes():
    """{name: parameter types} of every kernel of march._SOURCES, read
    from its `void kfp_*(...)` definition."""
    prototypes = {}
    for source in march._SOURCES:
        for name, params in re.findall(r"\bvoid\s+(kfp_\w+)\s*\(([^)]*)\)",
                                       source.read_text()):
            # a value parameter's type is the word before its name
            prototypes[name] = tuple(
                ctypes.c_void_p if "*" in param else
                _C_TYPES[param.split()[-2]] for param in params.split(","))
    return prototypes


def test_every_kernel_signature_is_declared_as_the_source_defines_it():
    prototypes = _prototypes()
    assert sorted(prototypes) == sorted(march._SIGNATURES)
    for name, types in prototypes.items():
        assert march._SIGNATURES[name] == types, name


@needs_cc
def test_the_loaded_library_is_bound():
    lib = march._kernel_library()
    for name, argtypes in march._SIGNATURES.items():
        kernel = getattr(lib, name)
        assert (kernel.argtypes, kernel.restype) == (argtypes, None), name


def _small_verify_reports():
    """Both directions' weak_residual reports, as JSON, on a small
    solved member."""
    coef = make_rough_coefficients(3, lam=0.25, Lam=1.0, cell_size=0.08,
                                   s_amp=0.2)
    f = solve(lambda x, v: np.exp(-4.0 * x**2 - 2.0 * v**2), coef,
              Box(0.0, 0.3, -1.0, 1.0, -1.5, 1.5), nx=32, nv=24, nt=12,
              pad_x=0.4, pad_v=0.5)
    basis = weak_basis(f, coef)
    return [json.dumps(weak_residual(basis, d).to_json_dict())
            for d in ("sub", "super")]


@pytest.mark.parametrize("case", ["no-compiler", "unwritable-cache",
                                  "failed-build", "missing-kernel"])
def test_solve_falls_back_to_numpy_silently(case, tmp_path, monkeypatch,
                                            capfd):
    compiled = _small_verify_reports()
    if case == "no-compiler":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif case == "unwritable-cache":  # a file where the directory goes
        (tmp_path / "kfplab").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    else:
        # a source that is not C, or one that builds a library lacking
        # a kernel _SIGNATURES declares
        source = tmp_path / "weak.c"
        weak_c = march._SOURCES[-1].read_text()
        assert "void kfp_pair(" in weak_c
        source.write_text("this is not C\n" if case == "failed-build"
                          else weak_c.replace("kfp_pair(", "kfp_pairs("))
        monkeypatch.setattr(march, "_SOURCES", (*march._SOURCES[:-1], source))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(march, "_kernel_library",
                        functools.cache(march._kernel_library.__wrapped__))
    assert march.kernel_path() == "numpy"
    # the march and the residual both run numpy, to the same bytes
    assert _small_verify_reports() == compiled
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
