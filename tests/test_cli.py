"""Command-line runner: validation, outputs, determinism, exit codes.

Fast paths run in-process against the config dataclass; the end-to-end
contract (flags, env overrides, exit codes, report files) goes through
subprocesses on the shipped demo config.
"""

import concurrent.futures
import contextlib
import copy
import importlib
import importlib.resources
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from kfplab import cli, experiments
from kfplab.calibration import load_calibration
from kfplab.cli import ExperimentConfig, parse_seeds, validate
from kfplab.estimates.checks import STATEMENTS
from kfplab.solver.grid import Box
from kfplab.solver.march import solve_grid

REPO = Path(__file__).resolve().parents[1]
EXAMPLE = REPO / "docs" / "example_config.json"


def example_dict():
    return json.loads(EXAMPLE.read_text())


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "kfplab.cli", *args],
                          capture_output=True, text=True, env=env,
                          cwd=cwd or REPO)


# ---------------------------------------------------------------------------
# seed parsing


def test_parse_seeds_range():
    assert parse_seeds("3..6") == [3, 4, 5, 6]


def test_parse_seeds_list():
    assert parse_seeds("1, 5,9") == [1, 5, 9]


def test_parse_seeds_single():
    assert parse_seeds("7") == [7]


def test_parse_seeds_empty_range_rejected():
    with pytest.raises(ValueError):
        parse_seeds("7..3")


def test_a_seed_range_too_long_to_list_exits_2(tmp_path, capsys):
    # 2^70 seeds: range's length overflows a C ssize_t
    out = tmp_path / "out"
    code = cli.main(["ensemble", "--config", str(EXAMPLE), "--out", str(out),
                     "--seeds", f"1..{2 ** 70}"])
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == ["seeds"]
    assert not out.exists()


def _fields_rejected_under_address_limit(limit, argv):
    """The fields cli.main(argv) names on exit 2 in a subprocess that
    first sets its address-space limit (RLIMIT_AS) to limit bytes; the
    limit keeps what is built anyway from taking the machine's memory."""
    script = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
        from kfplab import cli
        sys.exit(cli.main({argv!r}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": str(REPO / "src")},
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    return [v["field"] for v in json.loads(proc.stdout)["violations"]]


def test_a_seed_range_past_the_address_space_exits_2(tmp_path):
    # 10^11 seeds fit a range but not a list
    assert _fields_rejected_under_address_limit(4 << 30, [
        "ensemble", "--config", str(EXAMPLE), "--out", str(tmp_path / "out"),
        "--seeds", "1..100000000000"]) == ["seeds"]


def test_a_seed_range_past_the_address_limit_below_the_memory_exits_2(
        tmp_path):
    # 5 * 10^7 seeds list in about 1.8 GB: within physical memory on most
    # hosts, past a 1 GiB address-space limit
    assert _fields_rejected_under_address_limit(1 << 30, [
        "ensemble", "--config", str(EXAMPLE), "--out", str(tmp_path / "out"),
        "--seeds", "0..50000000"]) == ["seeds"]
    assert not (tmp_path / "out").exists()


def test_a_grid_past_the_address_limit_below_the_memory_exits_2(tmp_path):
    # (nt + 1) nx nv float64 cells of 1001 x 512 x 512 take 1.96 GiB
    data = dict(example_dict(), kind="solve", checks=[])
    data["grid"] = {"nt": 1000, "nx": 512, "nv": 512}
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(data))
    assert _fields_rejected_under_address_limit(1 << 30, [
        "solve", "--config", str(path), "--out",
        str(tmp_path / "out")]) == ["grid.nt"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# validation


def test_example_config_validates_clean():
    config = ExperimentConfig.from_dict(example_dict())
    assert validate(config) == []


def test_empty_config_reports_every_required_field():
    config = ExperimentConfig.from_dict({"kind": "ensemble"})
    violations = validate(config)
    fields = {v["field"] for v in violations}
    required = {"grid.nt", "grid.nx", "grid.nv",
                "box.t0", "box.t1", "box.x0", "box.x1", "box.v0", "box.v1",
                "coefficients.lam", "coefficients.Lam",
                "coefficients.seeds", "checks"}
    assert required <= fields
    assert all(v["reason"] for v in violations)


def test_missing_kind_flagged():
    violations = validate(ExperimentConfig.from_dict({}))
    assert any(v["field"] == "kind" for v in violations)


def test_unknown_kind_flagged():
    violations = validate(ExperimentConfig.from_dict({"kind": "frobnicate"}))
    assert any(v["field"] == "kind" and "unknown" in v["reason"]
               for v in violations)


def test_cylinder_exceeding_box_names_the_cylinder():
    data = example_dict()
    data["checks"] = [{"name": "weak_poincare", "eps": 0.25}]
    violations = validate(ExperimentConfig.from_dict(data))
    assert violations
    assert all(v["field"] == "checks[0]" for v in violations)
    assert any("cylinder" in v["reason"] and "exceeds" in v["reason"]
               for v in violations)


@pytest.mark.parametrize("checks", [
    [{"name": "oscillation_decay"}],
    [{"name": "energy_estimate"}, {"name": "oscillation_decay", "levels": 2}],
    [{"name": "energy_estimate"}, {"name": "harnack"}],
], ids=["oscillation", "oscillation_levels2", "harnack"])
def test_unresolved_cylinder_exits_2_without_solving(checks, tmp_path,
                                                      monkeypatch, capsys):
    # the demo grid's cells are far wider than these small cylinders
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should not validate")

    monkeypatch.setattr(cli, "solve", no_solve)
    data = example_dict()
    data["checks"] = checks
    code = cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    bad = f"checks[{len(checks) - 1}]"
    assert {v["field"] for v in error["violations"]} == {bad}
    assert all("holds 0 cells of the grid" in v["reason"]
               for v in error["violations"])


def test_gagliardo_resolution_exits_2_without_solving(tmp_path, monkeypatch,
                                                      capsys):
    # Q_0.3 holds cells, but only 2 x-cells per slice of the demo grid
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should not validate")

    monkeypatch.setattr(cli, "solve", no_solve)
    data = example_dict()
    data["checks"] = [{"name": "sobolev_gain", "sigma": 0.25, "r": 0.3,
                       "R": 0.6}]
    code = cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path)
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert {v["field"] for v in error["violations"]} == {"checks[0]"}
    assert any("only 2 x-cells in a cylinder slice, need at least 4"
               in v["reason"] for v in error["violations"])


# CFL 4 + 1 ulp on solve's own axes, 4 on (x1 - x0) / nx
_CFL_ULP = {"grid": {"nt": 3, "nx": 12, "nv": 8},
            "box": {"t0": -1.0, "t1": 0.0, "x0": -1.0, "x1": 1.0,
                    "v0": -2.0, "v1": 2.0},
            "pads": {"x": 0.2, "v": 0.5},
            "coefficients": {"lam": 0.2, "Lam": 1.0, "seeds": [1]}}
# the two v cells sit outside every default test bump
_COARSE_V = {"grid": {"nt": 5, "nx": 5, "nv": 2},
             "box": {"t0": -1.0, "t1": 0.0, "x0": -2.5, "x1": 2.5,
                     "v0": -3.5, "v1": 3.5},
             "pads": {"x": 1.0, "v": 2.0},
             "coefficients": {"lam": 0.2, "Lam": 1.0, "seeds": [1]}}


@pytest.mark.parametrize("kind, data, field, words", [
    ("solve", _CFL_ULP, "grid.nt", "advective CFL 4.000000000000001"),
    ("verify", _CFL_ULP, "grid.nt", "advective CFL 4.000000000000001"),
    ("verify", _COARSE_V, "grid.nv", "holds no cell center"),
], ids=["cfl-solve", "cfl-verify", "verify-empty-bump"])
def test_unrunnable_grid_exits_2_without_solving(kind, data, field, words,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should not validate")

    monkeypatch.setattr(experiments, "solve", no_solve)
    config = ExperimentConfig.from_dict(dict(copy.deepcopy(data), kind=kind))
    assert cli.run(config, out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == [field]
    assert words in error["violations"][0]["reason"]


# Each would-be grid or cell mask asks for more than 2**47 bytes (the
# x86-64 user address space) or more than numpy's size limit, so none
# is allocated whatever the overcommit policy.
@pytest.mark.parametrize("kind, grid, field", [
    ("verify", {"nx": 2 ** 62}, "grid.nx"),
    ("verify", {"nt": 2 ** 62}, "grid.nt"),
    # past the memory bound; with that bound lifted the axes build
    # and Q_1/2's cell mask, 390 TiB, is refused (see the test below)
    ("ensemble", {"nt": 2 ** 18, "nx": 2 ** 20, "nv": 2 ** 20}, "grid.nx"),
], ids=["verify-nx", "verify-nt", "ensemble-mask"])
def test_grid_too_large_to_build_exits_2_naming_it(kind, grid, field,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should not validate")

    monkeypatch.setattr(experiments, "solve", no_solve)
    data = dict(example_dict(), kind=kind)
    if kind != "ensemble":
        data["checks"] = []  # only an ensemble reads checks
    data["grid"].update(grid)
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == [field]
    assert error["violations"][0]["reason"].startswith(
        "grid too large to build: ")


@pytest.mark.parametrize("kind, grid, field", [
    ("verify", {}, "grid.nx"),
    ("ensemble", {"nt": 200}, "grid.nt"),
    ("solve", {"nv": 300}, "grid.nv"),
], ids=["verify-nx", "ensemble-nt", "solve-nv"])
def test_a_grid_past_the_physical_memory_exits_2_naming_it(
        kind, grid, field, tmp_path, monkeypatch, capsys):
    # the memory figure is lowered to the demo-sized grid, so nothing
    # large is asked for; no axis may be built for a rejected grid
    def no_build(*args, **kwargs):
        raise AssertionError("built the axes of a grid past the memory")

    data = dict(example_dict(), kind=kind)
    if kind != "ensemble":
        data["checks"] = []  # only an ensemble reads checks
    data["grid"].update(grid)
    g = data["grid"]
    need = 8 * (g["nt"] + 1) * g["nx"] * g["nv"]
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert validate(ExperimentConfig.from_dict(data)) == []
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    for name in ("solve_grid", "solve_axes"):
        monkeypatch.setattr(cli, name, no_build)
    monkeypatch.setattr(experiments, "solve", no_build)
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == [field]
    assert error["violations"][0]["reason"] == (
        f"grid too large to build: (nt + 1) nx nv = {need // 8} float64 "
        f"cells exceed the {need - 1} bytes this process may hold")


def test_a_mask_too_large_to_build_exits_2_within_the_memory(
        tmp_path, monkeypatch, capsys):
    # past the memory bound, validate still turns a refused allocation
    # into exit 2: here Q_1/2's cell mask, 390 TiB, past the address
    # space, so it is never allocated
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 80)
    monkeypatch.setattr(experiments, "solve", None)
    data = example_dict()
    data["grid"].update(nt=2 ** 18, nx=2 ** 20, nv=2 ** 20)
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == ["grid.nx"]
    reason = error["violations"][0]["reason"]
    assert reason.startswith("grid too large to build: ")
    assert "bytes this process may hold" not in reason


def test_validation_counts_cells_on_the_axes_solve_stores():
    data = example_dict()
    config = ExperimentConfig.from_dict(data)
    f = experiments.run_member(cli._member_config(config), 1)["solution"]
    g = data["grid"]
    grid = solve_grid(Box(**data["box"]), g["nx"], g["nv"], g["nt"],
                      data["pads"]["x"], data["pads"]["v"])
    for a, b in zip((grid.times, grid.xs, grid.vs), (f.times, f.xs, f.vs)):
        assert np.array_equal(a, b)
    assert grid.safe_box == f.safe_box
    for name in ("energy_estimate", "oscillation_decay"):
        for cyl in STATEMENTS[name].cylinders():
            if grid.safe_box.contains(cyl.bbox()):
                assert (grid.cells(cyl, minimum=0).count
                        == f.cells(cyl, minimum=0).count)


@pytest.mark.parametrize("section, key, value", [
    ("coefficients", "cell_size", 1e-20),
    ("box", "x0", -1e300),
], ids=["tiny-cell", "far-box"])
def test_cell_index_overflow_exits_2(section, key, value, tmp_path,
                                     monkeypatch, capsys):
    # floor(coordinate / cell_size) past 2^63 casts to one int64 for
    # every cell, so the field would not be the seeded one
    monkeypatch.setattr(experiments, "solve", None)
    data = example_dict()
    data.update(kind="solve", checks=[])
    data[section][key] = value
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == [
        "coefficients.cell_size"]
    assert "2^63" in error["violations"][0]["reason"]


def test_standard_values_are_in_step(monkeypatch):
    # the standard instance is defined once in experiments; the benchmark
    # and the demo config restate it and must agree (seeds aside)
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    workloads = importlib.import_module("workloads")
    standard = experiments.STANDARD_CONFIG
    assert dict(workloads.STANDARD_CONFIG,
                checks=workloads.STANDARD_CHECKS) == standard
    example = example_dict()
    example["coefficients"].pop("seeds")
    for section in ("box", "pads", "coefficients", "datum"):
        assert example[section] == standard[section], section


def test_unknown_check_name_flagged():
    data = example_dict()
    data["checks"] = [{"name": "not_a_check"}]
    violations = validate(ExperimentConfig.from_dict(data))
    assert any(v["field"] == "checks[0].name" for v in violations)


def test_empty_seed_list_rejected_for_ensemble():
    data = example_dict()
    data["coefficients"]["seeds"] = []
    violations = validate(ExperimentConfig.from_dict(data))
    assert any(v["field"] == "coefficients.seeds" for v in violations)


def test_cfl_precheck_flags_coarse_time_grid():
    data = example_dict()
    data["grid"]["nt"] = 2
    violations = validate(ExperimentConfig.from_dict(data))
    assert any("CFL" in v["reason"] for v in violations)


def test_unknown_top_level_key_flagged():
    data = example_dict()
    data["grdi"] = {}
    violations = validate(ExperimentConfig.from_dict(data))
    assert any(v["field"] == "grdi" for v in violations)


def test_check_parameter_range_enforced(tmp_path):
    # (entry, word the reason must name); each sits behind a valid check
    bad_entries = [
        ({"name": "sobolev_gain", "sigma": 0.5}, "sigma"),
        ({"name": "gain_integrability", "p": 1.5}, "p must"),
        ({"name": "gain_integrability", "p": 3.0}, "p must"),
        ({"name": "weak_poincare", "eps": 0.25, "sigma": 0.5}, "sigma"),
        ({"name": "weak_harnack", "zeta": 0}, "zeta"),
        ({"name": "oscillation_decay", "levels": 0}, "levels"),
        ({"name": "gain_integrability", "p": "x"}, "p must"),
        ("energy_estimate", "object"),
    ]
    for entry, word in bad_entries:
        data = example_dict()
        data["checks"] = [{"name": "energy_estimate"}, entry]
        config = ExperimentConfig.from_dict(data)
        violations = validate(config)
        assert violations, entry
        assert all(v["field"] == "checks[1]" for v in violations), violations
        assert any(word in v["reason"] for v in violations), violations
        assert cli.run(config, out_dir=tmp_path / "out") == 2


def _options(**values):
    return lambda data, env: data.update(options=values)


# case -> (kind, field the violation must name, edit of the config);
# the ensemble cases edit the demo config, the others start from {}
_MISTYPED = {
    "grid.nx": ("ensemble", "grid.nx",
                lambda data, env: data["grid"].update(nx="a")),
    "box.x1": ("ensemble", "box.x1",
               lambda data, env: data["box"].update(x1=math.inf)),
    "threads": ("ensemble", "threads",
                lambda data, env: data.update(threads="a")),
    "coefficients.seeds": ("ensemble", "coefficients.seeds",
                           lambda data, env: data["coefficients"].update(
                               seeds=["a"])),
    # the coefficient hash reads a seed as one uint64
    "coefficients.seeds=-1": ("ensemble", "coefficients.seeds",
                              lambda data, env: data["coefficients"].update(
                                  seeds=[-1])),
    "coefficients.seeds=2^64": ("ensemble", "coefficients.seeds",
                                lambda data, env: data["coefficients"].update(
                                    seeds=[2 ** 64])),
    "strict": ("ensemble", "strict",
               lambda data, env: data.update(strict="no")),
    "KFPLAB_THREADS": ("ensemble", "KFPLAB_THREADS",
                       lambda data, env: env.setenv("KFPLAB_THREADS", "abc")),
    "constants:delta1=a": ("constants", "options.delta1",
                           _options(delta1="a")),
    "constants:delta1=0": ("constants", "options.delta1",
                           _options(delta1=0.0)),
    "constants:digits=x": ("constants", "options.digits",
                           _options(digits="x")),
    "constants:options=[1]": ("constants", "options",
                              lambda data, env: data.update(options=[1])),
    "constants:out=5": ("constants", "out",
                        lambda data, env: data.update(out=5)),
    "counterexample:verify=no": ("counterexample", "options.verify",
                                 _options(verify="no")),
    # keys the kind does not read, which would otherwise fall back
    # silently to a default
    "convergence:levels=ab": ("convergence", "options.levels",
                              _options(levels="ab")),
    "convergence:levels=[0]": ("convergence", "options.levels",
                               _options(levels=[0])),
    "pads.vv": ("ensemble", "pads.vv",
                lambda data, env: data["pads"].update(vv=2.0)),
    # solve takes it, but a config's grid holds only the sizes
    "grid.store_every": ("ensemble", "grid.store_every",
                         lambda data, env: data["grid"].update(
                             store_every=2)),
    # no kind reads a tolerances section
    "kernel-check:kernel_mass=a": (
        "kernel-check", "tolerances",
        lambda data, env: data.update(tolerances={"kernel_mass": "a"})),
    "tolerances.kernel_mass": (
        "ensemble", "tolerances",
        lambda data, env: data.update(tolerances={"kernel_mass": 1e-6})),
    "constants:digit=5": ("constants", "options.digit", _options(digit=5)),
    "constants:seeds": ("constants", "coefficients.seeds",
                        lambda data, env: data.update(
                            coefficients={"seeds": [1]})),
    "kernel-check:grid.nx": ("kernel-check", "grid.nx",
                             lambda data, env: data.update(grid={"nx": 8})),
    "counterexample:verify=true": ("counterexample", "options.verify",
                                   _options(verify=True)),
    "convergence:datum.floor": ("convergence", "datum.floor",
                                lambda data, env: data.update(
                                    datum={"floor": 0.1})),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED))
def test_mistyped_field_exits_2_naming_it(case, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.delenv("KFPLAB_THREADS", raising=False)
    kind, field, edit = _MISTYPED[case]
    data = example_dict() if kind == "ensemble" else {}
    edit(data, monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code = cli.main([kind, "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "validation"
    assert field in {v["field"] for v in error["violations"]}


@pytest.mark.parametrize("form", ["config", "flag"])
def test_repeated_seed_exits_2_naming_it(form, tmp_path, monkeypatch,
                                         capsys):
    # each seed is one member; a repeat would be solved twice and listed
    # once among the members
    monkeypatch.delenv("KFPLAB_THREADS", raising=False)
    data = example_dict()
    argv = []
    if form == "config":
        data["coefficients"]["seeds"] = [2, 1, 2]
    else:
        argv = ["--seeds", "2,1,2"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = cli.main(["ensemble", "--config", str(path), "--out", str(out),
                     *argv])
    assert code == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == ["coefficients.seeds"]
    assert "[2]" in error["violations"][0]["reason"]
    assert not (out / "reports.json").exists()


def test_seeds_at_the_ends_of_uint64_validate():
    data = example_dict()
    data["coefficients"]["seeds"] = [0, 2 ** 64 - 1]
    assert validate(ExperimentConfig.from_dict(data)) == []


@pytest.mark.parametrize("kind", [k for k in cli.KINDS if k != "ensemble"])
def test_checks_for_a_kind_that_runs_none_exit_2(kind, tmp_path,
                                                 monkeypatch, capsys):
    # only an ensemble runs checks; another kind would drop them silently,
    # so its entries are not checked one by one either
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should not validate")

    monkeypatch.setattr(experiments, "solve", no_solve)
    data = example_dict() if kind in ("solve", "verify") else {}
    data.update(kind=kind, checks=[{"name": "energy_estimate"},
                                   {"name": "not_a_check"}])
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["violations"] == [
        {"field": "checks", "reason": f"not read by kind {kind!r}"}]


class _FakeReport:
    def __init__(self, **fields):
        self.__dict__.update(fields)

    def to_json_dict(self):
        return dict(self.__dict__)


@pytest.mark.parametrize("sub_passed,code", [(True, 0), (False, 1)])
def test_counterexample_exit_requires_sub_solution(sub_passed, code, tmp_path,
                                                   monkeypatch):
    """The counterexample holds only if its indicator is a weak
    sub-solution; the super direction is the negative control and
    fails without moving the exit code."""
    result = {
        "gap_removed": _FakeReport(hypotheses_met=True),
        "with_gap": _FakeReport(hypotheses_met=False),
        "intermediate_fraction": 0.0,
        "nu": 1e-3,
        "residual_sub": _FakeReport(passed=sub_passed),
        "residual_super": _FakeReport(passed=False),
    }
    monkeypatch.setattr(cli.experiments, "run_counterexample",
                        lambda **kwargs: result)
    assert cli.main(["counterexample", "--out", str(tmp_path)]) == code
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert reports["residual_sub"]["passed"] is sub_passed
    assert reports["residual_super"]["passed"] is False


# ---------------------------------------------------------------------------
# strict aggregation policy (in-process, one seed sabotaged)


def _fail_solves(monkeypatch, fail_seeds):
    """experiments.solve raises for the coefficient seeds listed."""
    solve = experiments.solve

    def patched(f0, coef, *args, **kwargs):
        if coef.seed in fail_seeds:
            raise RuntimeError("synthetic solver failure")
        return solve(f0, coef, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve", patched)


def test_strict_flag_controls_seed_failure_policy(tmp_path, monkeypatch):
    # at threads 2 on two cores seed 2 runs in a forked process, which
    # inherits the patch; its error record crosses the pool unchanged
    _usable_cores(monkeypatch, 2)
    _fail_solves(monkeypatch, {2})
    for threads in (1, 2):
        data = example_dict()
        data["coefficients"]["seeds"] = [1, 2]
        data["threads"] = threads
        out = tmp_path / f"threads{threads}"

        config = ExperimentConfig.from_dict(data)
        assert cli.run(config, out_dir=out / "lax") == 0

        data_strict = copy.deepcopy(data)
        data_strict["strict"] = True
        config = ExperimentConfig.from_dict(data_strict)
        assert cli.run(config, out_dir=out / "strict") == 1

        # failed seeds still occupy their summary rows
        rows = (out / "strict" / "summary.csv").read_text().strip()
        lines = rows.split("\n")[1:]
        assert len(lines) == len(data["checks"]) * 2
        assert sum("error" in line for line in lines) == len(data["checks"])

        reports = json.loads((out / "strict" / "reports.json").read_text())
        by_seed = {m["seed"]: m["status"] for m in reports["members"]}
        assert by_seed == {1: "ok", 2: "error"}
        assert reports["members"][1]["error"] == (
            "RuntimeError: synthetic solver failure")


def _fail_linfty_checks(monkeypatch, fail_seeds):
    """experiments.check_linfty_bound raises for the coefficient seeds
    listed."""
    check = experiments.check_linfty_bound

    def patched(f, coef, *args, **kwargs):
        if coef.seed in fail_seeds:
            raise ValueError("synthetic checker failure")
        return check(f, coef, *args, **kwargs)

    monkeypatch.setattr(experiments, "check_linfty_bound", patched)


@pytest.mark.parametrize("sabotage, error", [
    (_fail_solves, "RuntimeError: synthetic solver failure"),
    (_fail_linfty_checks, "linfty_bound: ValueError: synthetic checker "
     "failure; linfty_bound: ValueError: synthetic checker failure")],
    ids=["solve", "check"])
def test_pooled_study_raises_the_in_process_error(sabotage, error,
                                                  monkeypatch):
    # on two cores this process runs seeds 1 and 3 and a forked one, which
    # inherits the patches, runs seed 2; the first failed member in job
    # order raises
    monkeypatch.setattr(experiments, "ENSEMBLE_SEEDS", (1, 2, 3))
    _usable_cores(monkeypatch, 2)
    sabotage(monkeypatch, {2, 3})
    with pytest.raises(RuntimeError, match=f"^standard member 2: "
                       f"{re.escape(error)}$"):
        experiments.run_standard_ensemble()


def test_run_without_an_evaluated_check_exits_1(tmp_path, monkeypatch):
    data = example_dict()
    data["coefficients"]["seeds"] = [1, 2]
    data["threads"] = 1
    _fail_solves(monkeypatch, {1, 2})

    config = ExperimentConfig.from_dict(data)
    assert cli.run(config, out_dir=tmp_path) == 1
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert {m["status"] for m in reports["members"]} == {"error"}


@pytest.mark.parametrize("keep, code", [(False, 1), (True, 0)],
                         ids=["no-verdict", "mixed"])
def test_a_run_needs_a_verdict_to_exit_0(keep, code, tmp_path):
    # gain_integrability has no calibrated bound at p = 2.25, so its
    # report has no verdict: alone it fails the run, beside passing
    # checks it fails nothing
    data = example_dict()
    data["coefficients"]["seeds"] = [1]
    data["threads"] = 1
    data["checks"] = (data["checks"] if keep else []) + [
        {"name": "gain_integrability", "p": 2.25}]
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == code
    member, = json.loads((tmp_path / "reports.json").read_text())["members"]
    verdicts = {r["statement_id"]: r["passed"] for r in member["reports"]}
    assert verdicts.pop("gain_integrability[p=2.25]") is None
    assert len(verdicts) == len(data["checks"]) - 1
    assert all(v is True for v in verdicts.values())


def test_missing_calibration_fails_the_run(tmp_path, monkeypatch):
    # without the calibration file no calibrated check has a bound to
    # fail against, which must not read as a pass
    monkeypatch.setattr(importlib.resources, "files",
                        lambda package: tmp_path)
    load_calibration.cache_clear()
    try:
        with pytest.raises(FileNotFoundError):
            load_calibration()
        data = example_dict()
        data["threads"] = 1
        out = tmp_path / "out"
        assert cli.run(ExperimentConfig.from_dict(data), out_dir=out) == 1
    finally:
        load_calibration.cache_clear()
    reports = json.loads((out / "reports.json").read_text())
    errors = [e["error"] for m in reports["members"] for e in m["errors"]]
    assert len(errors) == len(data["checks"]) * len(
        data["coefficients"]["seeds"])
    assert all(e.startswith("FileNotFoundError") for e in errors), errors


# the marches overflow on their way to the divergence check
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, grid, rows", [
    ("solve", {"nt": 8, "nx": 16, "nv": 8}, ["solve,1,,,,error,"]),
    ("verify", {"nt": 40, "nx": 40, "nv": 40},
     ["residual_sub,1,,,,error,", "residual_super,1,,,,error,"]),
])
def test_diverging_march_exits_1_with_its_error_record(kind, grid, rows,
                                                       tmp_path):
    data = example_dict()
    data.update(kind=kind, grid=grid, checks=[])
    data["coefficients"]["Lam"] = 1e100
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 1
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert reports.pop("error").startswith(
        "SolverDivergenceError: solver diverged at step ")
    assert reports == {"kind": kind, "seed": 1, "status": "error"}
    summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert summary[1:] == rows


def test_raising_check_keeps_the_seeds_other_reports(tmp_path,
                                                     monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic checker failure")

    monkeypatch.setattr(experiments, "check_sobolev_gain", boom)
    _usable_cores(monkeypatch, 2)
    for threads in (1, 2):  # in-process, then in a forked process
        data = example_dict()
        data["coefficients"]["seeds"] = [1]
        data["threads"] = threads
        data["checks"] = [{"name": "energy_estimate"},
                          {"name": "sobolev_gain", "sigma": 0.25}]
        out = tmp_path / f"threads{threads}"
        # the check was not evaluated, so the run fails even without
        # --strict
        assert cli.run(ExperimentConfig.from_dict(data), out_dir=out) == 1

        member, = json.loads((out / "reports.json").read_text())["members"]
        assert member["status"] == "ok"
        assert [r["statement_id"] for r in member["reports"]] == [
            "energy_estimate"]
        assert member["errors"] == [{"check": "sobolev_gain",
                                     "error": "RuntimeError: synthetic "
                                              "checker failure"}]
        rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
        assert rows[0].startswith("energy_estimate,1,")
        assert rows[1] == "sobolev_gain,1,,,,error,"


def test_checks_resolve_through_experiments_module_names(tmp_path,
                                                         monkeypatch):
    # perfbench/spans.py attributes checker time by wrapping these names
    calls = []
    original = experiments.check_energy_estimate

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "check_energy_estimate", spy)
    data = example_dict()
    data["coefficients"]["seeds"] = [1]
    data["threads"] = 1
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    assert len(calls) == 1


def test_verify_resolves_weak_residual_through_cli(tmp_path, monkeypatch):
    # perfbench/spans.py attributes weak.* time by wrapping this name
    directions = []
    original = cli.weak_residual

    def spy(*args, **kwargs):
        directions.append(kwargs["direction"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "weak_residual", spy)
    data = dict(example_dict(), kind="verify", checks=[])
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    assert directions == ["sub", "super"]


# ---------------------------------------------------------------------------
# member processes


def _usable_cores(monkeypatch, n):
    """os.sched_getaffinity reports n cores, so member_workers caps the
    workers at n on any host; a forked process still runs wherever the
    host puts it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _recording_pool(monkeypatch, pools):
    """ProcessPoolExecutor becomes a stand-in that starts no process: it
    runs its jobs here and records, per pool, the size asked for and the
    seeds handed to it."""
    class Pool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "fork"
            self.record = {"size": max_workers}
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            self.record.setdefault("seeds", []).append(job[1])
            future = concurrent.futures.Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)


def test_member_pool_never_outnumbers_the_members(tmp_path, monkeypatch):
    # this process is one of the workers, so the pool holds one process
    # fewer than there are workers and runs the jobs this one skips; 64
    # cores leave the members as the only cap
    pools = []
    _recording_pool(monkeypatch, pools)
    _usable_cores(monkeypatch, 64)
    data = example_dict()
    data["coefficients"]["seeds"] = [2, 1]
    data["threads"] = 10**6
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    assert pools == [{"size": 1, "seeds": [2]}]
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert [m["seed"] for m in reports["members"]] == [1, 2]

    jobs = [(cli._member_config(ExperimentConfig.from_dict(data)), seed)
            for seed in (1, 2, 3, 4, 5)]
    records = experiments.run_members(jobs, 2)
    assert pools[1:] == [{"size": 1, "seeds": [2, 4]}]
    assert [r["seed"] for r in records] == [1, 2, 3, 4, 5]
    assert all("solution" not in r for r in records)
    experiments.run_members(jobs[:3], 10**6)
    assert pools[2:] == [{"size": 2, "seeds": [2, 3]}]


def test_threads_past_the_cores_run_one_worker_per_core(tmp_path,
                                                         monkeypatch):
    # threads is a ceiling: on two cores a million threads give this
    # process and one forked process, and metadata.json says so
    pools = []
    _recording_pool(monkeypatch, pools)
    _usable_cores(monkeypatch, 2)
    data = example_dict()
    data["coefficients"]["seeds"] = [1, 2, 3, 4, 5]
    data["threads"] = 10**6
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    assert pools == [{"size": 1, "seeds": [2, 4]}]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert (meta["threads"], meta["workers"]) == (10**6, 2)

    jobs = [(cli._member_config(ExperimentConfig.from_dict(data)), seed)
            for seed in (1, 2, 3, 4, 5)]
    assert [r["seed"] for r in experiments.run_members(jobs, 10**6)] == [
        1, 2, 3, 4, 5]
    assert pools[1:] == [{"size": 1, "seeds": [2, 4]}]


def test_member_workers_is_the_smallest_ceiling(monkeypatch):
    _usable_cores(monkeypatch, 3)
    assert [experiments.member_workers(w, j) for w, j in (
        (1, 5), (2, 5), (10**6, 5), (10**6, 2), (4, 1))] == [1, 2, 3, 2, 1]
    # no affinity call: os.cpu_count(), or 1 where that says nothing
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert experiments.member_workers(10**6, 10) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments.member_workers(10**6, 10) == 1
    # no fork: every member runs in this process
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.delattr(os, "fork")
    assert experiments.member_workers(10**6, 10) == 1


def test_one_worker_builds_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("built a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    data = example_dict()
    data["threads"] = 1
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0

    # a platform that cannot fork, or has one core where it does not say
    # which cores this process may use, runs every member here
    jobs = [(cli._member_config(ExperimentConfig.from_dict(data)), seed)
            for seed in (1, 2)]
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert [r["seed"] for r in experiments.run_members(jobs, 2)] == [1, 2]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(experiments, "ENSEMBLE_SEEDS", (1, 2))
    assert [m["seed"] for m in experiments.run_standard_ensemble()] == [1, 2]


def test_pairs_solve_only_their_variant_members(monkeypatch):
    # the pairs read their base constants from the ensemble, so each
    # standard member is solved once; the demo grid keeps the solves small
    calls = []
    run_members = experiments.run_members

    def recorder(jobs, workers):
        calls.append((list(jobs), workers))
        return run_members(jobs, workers)

    demo = cli._member_config(ExperimentConfig.from_dict(example_dict()),
                              [{"name": "energy_estimate"}])
    monkeypatch.setattr(experiments, "run_members", recorder)
    monkeypatch.setattr(experiments, "STANDARD_CONFIG", demo)
    monkeypatch.setattr(experiments, "ENSEMBLE_SEEDS", (1, 2, 3, 4, 5, 7, 13))
    ensemble = experiments.run_standard_ensemble()
    refinement = experiments.run_refinement_pairs(ensemble)
    boundary = experiments.run_boundary_pairs(ensemble)

    fine = dict(demo, grid={k: 2 * n for k, n in demo["grid"].items()})
    wide = experiments._standard_config(box_scale=1.5)
    assert wide["grid"] == dict(demo["grid"], nx=144, nv=72)
    assert wide["box"] == dict(demo["box"], x0=-3.75, x1=3.75,
                               v0=-5.25, v1=5.25)
    assert [jobs for jobs, _ in calls] == [
        [(demo, seed) for seed in (1, 2, 3, 4, 5, 7, 13)],
        [(fine, seed) for seed in (1, 2, 3, 4, 5)],
        [(wide, seed) for seed in (1, 7, 13)]]
    assert len({workers for _, workers in calls}) == 1
    assert [pair["seed"] for pair in refinement] == [1, 2, 3, 4, 5]
    assert [pair["seed"] for pair in boundary] == [1, 7, 13]
    base = {member["seed"]: {r.statement_id: r.empirical_constant
                             for r in member["reports"]}
            for member in ensemble}
    assert all(pair["base"] == base[pair["seed"]]
               for pair in refinement + boundary)


def test_boundary_pair_equals_its_two_members(monkeypatch):
    monkeypatch.setattr(experiments, "ENSEMBLE_SEEDS", (1,))
    monkeypatch.setattr(experiments, "BOUNDARY_SEEDS", (1,))
    pairs = experiments.run_boundary_pairs(
        experiments.run_standard_ensemble())

    def constants(**variant):
        record = experiments.run_member(
            experiments._standard_config(**variant), 1)
        return {r.statement_id: r.empirical_constant
                for r in record["reports"]}

    base, wide = constants(), constants(box_scale=experiments.BOUNDARY_SCALE)
    assert len(base) == len(experiments.STANDARD_CONFIG["checks"])
    assert pairs == [{"seed": 1, "base": base, "wide": wide,
                      "shifts": {sid: abs(wide[sid] / base[sid] - 1.0)
                                 for sid in base}}]


# Small grids that resolve the statements the demo config leaves out;
# with the demo config they run every statement the CLI accepts.
_POOLED_CONFIGS = {
    "demo": {},
    "harnack": {
        "grid": {"nt": 5, "nx": 21, "nv": 21},
        "box": {"t0": -0.03, "t1": 0.0, "x0": -1.05, "x1": 1.05,
                "v0": -1.05, "v1": 1.05},
        "pads": {"x": 0.5, "v": 0.5},
        "checks": [{"name": "harnack"}, {"name": "weak_harnack"}]},
    "oscillation": {
        "grid": {"nt": 40, "nx": 21, "nv": 168},
        "box": {"t0": -1.2, "t1": 0.0, "x0": -2.1, "x1": 2.1,
                "v0": -2.0, "v1": 2.0},
        "pads": {"x": 0.5, "v": 0.5},
        "checks": [{"name": "oscillation_decay"}]},
    "weak_poincare": {
        "grid": {"nt": 40, "nx": 41, "nv": 21},
        "box": {"t0": -26.0, "t1": 0.0, "x0": -130.0, "x1": 130.0,
                "v0": -6.0, "v1": 6.0},
        "pads": {"x": 1.0, "v": 1.0},
        "checks": [{"name": "weak_poincare", "eps": 0.5}]},
}


@pytest.mark.parametrize("name", list(_POOLED_CONFIGS))
def test_member_processes_write_the_in_process_bytes(name, tmp_path,
                                                     monkeypatch):
    # three cores, so threads 3 forks two processes on any host
    _usable_cores(monkeypatch, 3)
    data = example_dict()
    data.update(_POOLED_CONFIGS[name])
    assert validate(ExperimentConfig.from_dict(data)) == []
    runs = []
    for threads in (1, 2, 3):
        data["threads"] = threads
        out = tmp_path / f"threads{threads}"
        code = cli.run(ExperimentConfig.from_dict(data), out_dir=out)
        runs.append((code, {p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "metadata.json"}))
    assert "constants_by_seed.csv" in runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


_MEMBER_RECORD = experiments._member_record


def _member_record_dying_on_seed_2(job):
    """experiments._member_record, except that a forked member process
    SIGKILLs itself on seed 2.  A module-level function, so that the
    pool can send it to its process by name."""
    if job[1] == 2 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _MEMBER_RECORD(job)


def test_a_dead_member_process_costs_only_its_own_seed(tmp_path,
                                                       monkeypatch, capfd):
    # a real fork: at threads 2 on two cores this process runs seeds 1
    # and 3 and a forked one runs seed 2, and dies
    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_member_record",
                        _member_record_dying_on_seed_2)
    data = example_dict()
    data["threads"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["ensemble", "--config", str(path),
                     "--out", str(out)]) == 1
    assert "Traceback" not in capfd.readouterr().err
    reports = json.loads((out / "reports.json").read_text())
    survivors = [m for m in reports["members"] if m["seed"] != 2]
    lost, = [m for m in reports["members"] if m["seed"] == 2]
    assert sorted(lost) == ["error", "seed", "status"]
    assert lost["status"] == "error"
    assert lost["error"].startswith(f"{experiments.MEMBER_PROCESS_DIED}: "
                                    f"BrokenProcessPool: ")
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert sum(",2,,,,error," in row for row in rows) == len(data["checks"])

    # the survivors' reports are those of a run without seed 2
    data.update(threads=1)
    data["coefficients"]["seeds"] = [1, 3]
    assert cli.run(ExperimentConfig.from_dict(data),
                   out_dir=tmp_path / "alone") == 0
    alone = json.loads((tmp_path / "alone" / "reports.json").read_text())
    assert survivors == alone["members"]

    # a study names the seed
    monkeypatch.setattr(experiments, "ENSEMBLE_SEEDS", (1, 2))
    with pytest.raises(RuntimeError, match=f"^standard member 2: "
                       f"{experiments.MEMBER_PROCESS_DIED}: "):
        experiments.run_standard_ensemble()


# ---------------------------------------------------------------------------
# end-to-end subprocess runs


def test_ensemble_demo_end_to_end(tmp_path):
    out1 = tmp_path / "run1"
    proc = run_cli(["ensemble", "--config", str(EXAMPLE), "--out", str(out1)])
    assert proc.returncode == 0, proc.stderr

    rows = (out1 / "summary.csv").read_text().strip().split("\n")[1:]
    data = example_dict()
    assert len(rows) == len(data["checks"]) * len(
        data["coefficients"]["seeds"])

    assert (out1 / "constants_by_seed.csv").exists()
    meta = json.loads((out1 / "metadata.json").read_text())
    assert "created_at" in meta and "elapsed_seconds" in meta
    # the kernel path that ran, and the numpy it ran on
    assert meta["kernels"] in ("compiled", "numpy")
    assert meta["numpy"] == np.__version__

    reports = json.loads((out1 / "reports.json").read_text())
    assert "created_at" not in json.dumps(reports)
    seeds = [m["seed"] for m in reports["members"]]
    assert seeds == sorted(seeds)

    # rerun is byte-identical (timestamps live in metadata.json only)
    out2 = tmp_path / "run2"
    proc = run_cli(["ensemble", "--config", str(EXAMPLE), "--out", str(out2)])
    assert proc.returncode == 0
    assert (out1 / "reports.json").read_bytes() == \
        (out2 / "reports.json").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == \
        (out2 / "summary.csv").read_bytes()


def test_seeds_flag_overrides_config(tmp_path):
    out = tmp_path / "seeded"
    proc = run_cli(["ensemble", "--config", str(EXAMPLE),
                    "--out", str(out), "--seeds", "4..5"])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    assert [m["seed"] for m in reports["members"]] == [4, 5]


def test_env_overrides_out_and_threads(tmp_path):
    out = tmp_path / "envout"
    proc = run_cli(["ensemble", "--config", str(EXAMPLE)],
                   env_extra={"KFPLAB_OUT": str(out), "KFPLAB_THREADS": "3"})
    assert proc.returncode == 0, proc.stderr
    assert (out / "reports.json").exists()
    meta = json.loads((out / "metadata.json").read_text())
    # the workers that ran: three seeds, at most one per usable core
    assert meta["threads"] == 3
    assert meta["workers"] == experiments.member_workers(3, 3)


def test_invalid_config_exits_2_with_machine_readable_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    proc = run_cli(["ensemble", "--config", str(bad)])
    assert proc.returncode == 2
    error = json.loads(proc.stdout)
    assert error["error"] == "validation"
    assert all({"field", "reason"} <= set(v) for v in error["violations"])


def test_kind_mismatch_exits_2(tmp_path):
    data = example_dict()
    data["kind"] = "solve"
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data))
    proc = run_cli(["ensemble", "--config", str(path)])
    assert proc.returncode == 2
    error = json.loads(proc.stdout)
    assert error["violations"][0]["field"] == "kind"


def test_unreadable_config_exits_2(tmp_path):
    proc = run_cli(["ensemble", "--config", str(tmp_path / "missing.json")])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "config"


def _main_with_out(source, out, tmp_path, monkeypatch):
    """cli.main on the constants kind, out given by source: the --out
    flag, KFPLAB_OUT or the config's out."""
    monkeypatch.delenv("KFPLAB_OUT", raising=False)
    argv = ["constants"]
    if source == "flag":
        argv += ["--out", str(out)]
    elif source == "env":
        monkeypatch.setenv("KFPLAB_OUT", str(out))
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "constants", "out": str(out)}))
        argv += ["--config", str(path)]
    return cli.main(argv)


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_an_out_path_that_is_a_file_exits_2(source, tmp_path, monkeypatch,
                                            capsys):
    out = tmp_path / "file"
    out.write_text("kept\n")
    assert _main_with_out(source, out, tmp_path, monkeypatch) == 2
    # one machine-readable error, printed before the runner ran
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == ["out"]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_an_out_path_below_a_file_exits_2(source, tmp_path, monkeypatch,
                                          capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert _main_with_out(source, out, tmp_path, monkeypatch) == 2
    error = json.loads(capsys.readouterr().out)
    assert [v["field"] for v in error["violations"]] == ["out"]


def test_kernel_check_kind(tmp_path):
    out = tmp_path / "kernel"
    proc = run_cli(["kernel-check", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    assert all(reports["checks"].values())
    assert max(float(e) for e in reports["mass_errors"].values()) <= 1e-6


def test_constants_kind_prints_tuple(tmp_path):
    out = tmp_path / "constants"
    proc = run_cli(["constants", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "(r0, eps, theta, nu, mu, alpha)" in proc.stdout
    reports = json.loads((out / "reports.json").read_text())
    assert reports["values"][0] == "0.05"


def test_constants_digits_end_at_the_precise_strings(tmp_path, capsys):
    # the precise strings hold 20 significant digits
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"options": {"digits": 21}}))
    assert cli.main(["constants", "--config", str(path),
                     "--out", str(tmp_path / "refused")]) == 2
    error = json.loads(capsys.readouterr().out)
    assert "options.digits" in {v["field"] for v in error["violations"]}
    path.write_text(json.dumps({"options": {"digits": 20}}))
    assert cli.main(["constants", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert reports["digits"] == 20


def test_constants_kind_runs_at_the_smallest_fractions(tmp_path, capsys):
    # mu's decimal exponent has about 16 900 digits here, past the
    # 4 300 digits str() converts
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"options": {"delta1": 5e-324,
                                            "delta2": 5e-324}}))
    assert cli.main(["constants", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())
    mu, alpha = reports["values"][4:]
    assert re.fullmatch(r"\d\.\d{1,11}e-\d{16000,17000}", mu)
    assert re.fullmatch(r"\d\.\d{1,11}e-\d{16000,17000}", alpha)


def test_convergence_kind_meets_order(tmp_path):
    out = tmp_path / "conv"
    proc = run_cli(["convergence", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    assert reports["order"] >= reports["min_order"]
    plot = (out / "error_vs_h.csv").read_text().strip().split("\n")
    assert plot[0] == "h,error"
    assert len(plot) == 1 + len(reports["levels"])


def test_solve_kind_writes_container(tmp_path):
    data = dict(example_dict(), kind="solve", checks=[])
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "solve_out"
    proc = run_cli(["solve", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    assert reports["finite"] is True
    # one member, so one worker whatever threads asks for
    meta = json.loads((out / "metadata.json").read_text())
    assert (meta["threads"], meta["workers"]) == (2, 1)
    container = out / reports["container"]
    assert container.exists()

    from kfplab.solver.grid import load_grid_function
    f = load_grid_function(container)
    # the initial slice is stored ahead of the nt marched slices, and a
    # solve with no checks stores the whole grid
    assert f.values.shape == (data["grid"]["nt"] + 1, data["grid"]["nx"],
                              data["grid"]["nv"])
    assert sorted(f.meta) == ["cfl", "coefficients", "dt", "dv", "dx", "nt",
                              "nv", "nx", "scheme", "store_every"]
    assert (reports["min"], reports["max"]) == (float(f.values.min()),
                                                float(f.values.max()))


def test_verify_kind_passes_residuals(tmp_path):
    data = dict(example_dict(), kind="verify", checks=[])
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "verify_out"
    proc = run_cli(["verify", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    for direction in ("sub", "super"):
        assert reports["residuals"][direction]["passed"] is True


# ---------------------------------------------------------------------------
# property: every compute config runs or is rejected with exit 2


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


# resolvable pairs on some 16-cell grids next to cylinders no such grid
# resolves, so both sides of validation are drawn
_DRAWN_CHECKS = [
    {"name": "energy_estimate"}, {"name": "energy_estimate", "r": 0.9},
    {"name": "gain_integrability", "p": 2.0},
    {"name": "gain_integrability", "p": 2.4, "R": 0.9},
    {"name": "sobolev_gain", "sigma": 0.25},
    {"name": "sobolev_gain", "sigma": 0.1, "r": 0.75},
    {"name": "linfty_bound", "zeta": 0.5},
    {"name": "linfty_bound", "zeta": 2.0, "r": 0.9},
    {"name": "weak_poincare", "eps": 0.5}, {"name": "harnack"},
    {"name": "weak_harnack"}, {"name": "oscillation_decay"},
]


@st.composite
def _compute_configs(draw):
    """JSON-shaped solve, verify and ensemble configs, sizes <= 16; the
    box is the unit cylinder's plus the pads plus a margin per side,
    which falls below zero on some draws."""
    kind = draw(st.sampled_from(("solve", "verify", "ensemble")))
    px, pv = draw(_num(0.0, 2.0)), draw(_num(0.0, 2.0))
    m = [draw(_num(-0.25, 3.0)) for _ in range(5)]
    lam = draw(_num(0.05, 1.0))
    return {
        "kind": kind,
        "grid": {k: draw(st.integers(2, 16)) for k in ("nt", "nx", "nv")},
        "box": {"t0": -(1.0 + m[0]), "t1": draw(_num(0.0, 0.5)),
                "x0": -(1.0 + px + m[1]), "x1": 1.0 + px + m[2],
                "v0": -(1.0 + pv + m[3]), "v1": 1.0 + pv + m[4]},
        "pads": {"x": px, "v": pv},
        "coefficients": {"lam": lam, "Lam": lam + draw(_num(-0.1, 2.0)),
                         "s_amp": draw(_num(0.0, 1.0)),
                         "cell_size": draw(_num(0.05, 1.0)),
                         "seeds": draw(st.lists(st.integers(0, 9),
                                                min_size=1, max_size=2))},
        "datum": {"floor": draw(_num(-1.0, 1.0)),
                  "amp": draw(_num(-2.0, 2.0)),
                  "width": draw(_num(0.05, 2.0))},
        "checks": draw(st.lists(st.sampled_from(_DRAWN_CHECKS),
                                min_size=kind == "ensemble", max_size=2)),
        "threads": 1,
    }


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_compute_configs())
def test_every_config_runs_or_exits_2(data):
    with tempfile.TemporaryDirectory() as out:
        code = cli.run(ExperimentConfig.from_dict(data), out_dir=out)
        wrote = (Path(out) / "reports.json").exists()
    assert code == 2 and not wrote or code in (0, 1) and wrote


def _magnitude():
    """10^e for e in [-300, 300]: positive and finite."""
    return st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


# fields _extreme_configs can push to an extreme magnitude, with the sign
# each takes; "ratio" is Lam / lam
_EXTREME = {"box.t0": -1.0, "box.t1": 1.0, "box.x0": -1.0, "box.x1": 1.0,
            "box.v0": -1.0, "box.v1": 1.0, "pads.x": 1.0, "pads.v": 1.0,
            "coefficients.cell_size": 1.0, "datum.width": 1.0,
            "ratio": 1.0}


@st.composite
def _extreme_configs(draw):
    """_compute_configs' configs with up to three of _EXTREME's fields
    at a magnitude from 1e-300 to 1e300 (lam from 1e-300 to 1 under an
    extreme ratio): extreme but finite."""
    data = draw(_compute_configs())
    for name in draw(st.sets(st.sampled_from(sorted(_EXTREME)),
                             max_size=3)):
        value = _EXTREME[name] * draw(_magnitude())
        if name == "ratio":
            lam = 10.0 ** draw(st.floats(-300.0, 0.0))
            data["coefficients"].update(lam=lam, Lam=lam * value)
        else:
            section, key = name.split(".")
            data[section][key] = value
    return data


# marches that diverge overflow on the way
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_extreme_configs())
def test_every_extreme_config_runs_or_exits_2(data):
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(ExperimentConfig.from_dict(data), out_dir=out)
        wrote = (Path(out) / "reports.json").exists()
    assert code == 2 and not wrote or code in (0, 1) and wrote


def _fraction():
    """10^e for e in [-324, 0]: 0 (10^-324 underflows), 5e-324, ..., 1."""
    return st.floats(-324.0, 0.0).map(lambda e: 10.0 ** e)


# the draws seldom reach the ends of the ranges, so the examples do
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fraction(), _fraction(),
       st.floats(-324.0, 308.23).map(lambda e: 10.0 ** e))
@example(5e-324, 5e-324, 1.7e308)
@example(5e-324, 1.0, 5e-324)
@example(0.0, 5e-324, 0.0)
def test_every_extreme_constants_config_runs_or_exits_2(delta1, delta2,
                                                        s_inf):
    data = {"kind": "constants",
            "options": {"delta1": delta1, "delta2": delta2, "s_inf": s_inf}}
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(ExperimentConfig.from_dict(data), out_dir=out)
        wrote = (Path(out) / "reports.json").exists()
    assert code == 2 and not wrote or code in (0, 1) and wrote


@pytest.mark.parametrize("nv, x1, v, cell_size, field, reason", [
    # a default bump's support rounds one ulp past the safe box, far
    # beyond Box.contains' absolute 1e-9
    pytest.param(2, 1.0, 1e100, 0.1, "box.v0", "leaves the safe box",
                 id="v-1e100"),
    pytest.param(4, 1.0, 1e300, 0.1, "box.v0", "leaves the safe box",
                 id="v-1e300-nv-4"),
    pytest.param(11, 1.0, 1e100, 0.1, "box.v0", "leaves the safe box",
                 id="v-1e100-nv-11"),
    # dx^2 overflows a float; the bumps stay inside here
    pytest.param(2, 1e155, 1.0, 1e137, "grid.nx", "grid tolerance",
                 id="dx-squared-overflows"),
])
def test_verify_far_from_the_origin_exits_2_naming_a_field(nv, x1, v,
                                                          cell_size, field,
                                                          reason):
    data = {"kind": "verify", "grid": {"nt": 2, "nx": 2, "nv": nv},
            "box": {"t0": -1.0, "t1": 0.0, "x0": -1.0, "x1": x1,
                    "v0": -v, "v1": v},
            "pads": {"x": 0.0, "v": 0.0},
            "coefficients": {"lam": 0.2, "Lam": 1.0, "s_amp": 0.1,
                             "cell_size": cell_size, "seeds": [1]}}
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(printed):
        assert cli.run(ExperimentConfig.from_dict(data), out_dir=out) == 2
    violations = json.loads(printed.getvalue())["violations"]
    assert any(item["field"] == field and reason in item["reason"]
               for item in violations), violations


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_compute_configs(), _num(5e-324, 8e-20))
def test_a_cell_size_past_the_int64_cell_index_exits_2(data, cell_size):
    # every drawn box has a corner at least 0.75 from the origin, so its
    # lattice cell index (time_cell's too, by which time_cell_runs
    # groups the slices of the march, the weak basis and the cylinder
    # sources) reaches 2^63, or infinity when the size is subnormal
    data["coefficients"]["cell_size"] = cell_size
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(printed):
        code = cli.run(ExperimentConfig.from_dict(data), out_dir=out)
        wrote = (Path(out) / "reports.json").exists()
    assert code == 2 and not wrote
    fields = [v["field"] for v in json.loads(printed.getvalue())["violations"]]
    assert "coefficients.cell_size" in fields
