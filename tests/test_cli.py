"""Command-line runner: validation, outputs, determinism, exit codes.

Fast paths run in-process against the config dataclass; the end-to-end
contract (flags, env overrides, exit codes, report files) goes through
subprocesses on the shipped demo config.
"""

import copy
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kfplab import cli, experiments
from kfplab.cli import ExperimentConfig, parse_seeds, validate
from kfplab.estimates.checks import STATEMENTS
from kfplab.solver.grid import Box

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


def test_validation_counts_cells_on_the_axes_solve_stores():
    data = example_dict()
    config = ExperimentConfig.from_dict(data)
    f = experiments.run_member(cli._member_config(config), 1)["solution"]
    g = data["grid"]
    grid = cli._solve_grid(Box(**data["box"]), g["nt"], g["nx"], g["nv"],
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
    "convergence:levels=ab": ("convergence", "options.levels",
                              _options(levels="ab")),
    "convergence:levels=[0]": ("convergence", "options.levels",
                               _options(levels=[0])),
    "kernel-check:kernel_mass=a": (
        "kernel-check", "tolerances.kernel_mass",
        lambda data, env: data.update(tolerances={"kernel_mass": "a"})),
    "counterexample:verify=no": ("counterexample", "options.verify",
                                 _options(verify="no")),
    # keys the kind does not read, which would otherwise fall back
    # silently to a default
    "pads.vv": ("ensemble", "pads.vv",
                lambda data, env: data["pads"].update(vv=2.0)),
    "tolerances.kernel_mass": (
        "ensemble", "tolerances.kernel_mass",
        lambda data, env: data["tolerances"].update(kernel_mass=1e-6)),
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
    data = example_dict()
    data["coefficients"]["seeds"] = [1, 2]
    data["threads"] = 1
    _fail_solves(monkeypatch, {2})

    config = ExperimentConfig.from_dict(data)
    assert cli.run(config, out_dir=tmp_path / "lax") == 0

    data_strict = copy.deepcopy(data)
    data_strict["strict"] = True
    config = ExperimentConfig.from_dict(data_strict)
    assert cli.run(config, out_dir=tmp_path / "strict") == 1

    # failed seeds still occupy their summary rows
    rows = (tmp_path / "strict" / "summary.csv").read_text().strip()
    lines = rows.split("\n")[1:]
    assert len(lines) == len(data["checks"]) * 2
    assert sum("error" in line for line in lines) == len(data["checks"])

    reports = json.loads((tmp_path / "strict" / "reports.json").read_text())
    by_seed = {m["seed"]: m["status"] for m in reports["members"]}
    assert by_seed == {1: "ok", 2: "error"}


def test_standard_member_raises_on_a_failed_solve_or_check(monkeypatch):
    # calibration and the acceptance fixtures read run_standard_member,
    # which must not skip a member or a check that raised
    _fail_solves(monkeypatch, {1})
    with pytest.raises(RuntimeError, match="^standard member 1: "
                       "RuntimeError: synthetic solver failure$"):
        experiments.run_standard_member(1)
    monkeypatch.undo()

    def boom(*args, **kwargs):
        raise ValueError("synthetic checker failure")

    monkeypatch.setattr(experiments, "check_linfty_bound", boom)
    with pytest.raises(RuntimeError, match="^standard member 2: "
                       "linfty_bound: ValueError: synthetic checker "
                       "failure; linfty_bound: "):
        experiments.run_standard_member(2)


def test_run_without_an_evaluated_check_exits_1(tmp_path, monkeypatch):
    data = example_dict()
    data["coefficients"]["seeds"] = [1, 2]
    data["threads"] = 1
    _fail_solves(monkeypatch, {1, 2})

    config = ExperimentConfig.from_dict(data)
    assert cli.run(config, out_dir=tmp_path) == 1
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert {m["status"] for m in reports["members"]} == {"error"}


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
    data = example_dict()
    data["coefficients"]["seeds"] = [1]
    data["threads"] = 1
    data["checks"] = [{"name": "energy_estimate"},
                      {"name": "sobolev_gain", "sigma": 0.25}]
    # the check was not evaluated, so the run fails even without --strict
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 1

    member, = json.loads((tmp_path / "reports.json").read_text())["members"]
    assert member["status"] == "ok"
    assert [r["statement_id"] for r in member["reports"]] == [
        "energy_estimate"]
    assert member["errors"] == [{"check": "sobolev_gain",
                                 "error": "RuntimeError: synthetic "
                                          "checker failure"}]
    rows = (tmp_path / "summary.csv").read_text().strip().split("\n")[1:]
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
    data = example_dict()
    data["kind"] = "verify"
    assert cli.run(ExperimentConfig.from_dict(data), out_dir=tmp_path) == 0
    assert directions == ["sub", "super"]


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
    assert meta["threads"] == 3


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
    data = example_dict()
    data["kind"] = "solve"
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "solve_out"
    proc = run_cli(["solve", "--config", str(path), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "reports.json").read_text())
    assert reports["finite"] is True
    container = out / reports["container"]
    assert container.exists()

    from kfplab.solver.grid import load_grid_function
    f = load_grid_function(container)
    # the initial slice is stored ahead of the nt marched slices
    assert f.values.shape == (data["grid"]["nt"] + 1, data["grid"]["nx"],
                              data["grid"]["nv"])


def test_verify_kind_passes_residuals(tmp_path):
    data = example_dict()
    data["kind"] = "verify"
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
