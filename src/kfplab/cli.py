"""Configuration-driven experiment runner.

One JSON config describes an experiment: grid, box, coefficient
ensemble, checks, and output directory.  `validate` reports every
violation before any compute; `run` executes the experiment and writes
a deterministic reports.json (byte-identical across reruns of the same
config), a CSV summary, per-check plot data, and a separate
metadata.json holding the timestamps, the kernel path that ran
(compiled or numpy) and numpy's version.

Exit codes: 0 all enabled checks passed, 1 a check failed or raised (or
a seed failed under --strict, a member process died, or no check ran),
2 the config did not validate.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import experiments
from .calibration import grid_tolerance
from .estimates.checks import STATEMENTS, Interval
from .estimates.constants import PRECISE_DIGITS, explicit_constants
from .solver.grid import Box, InsufficientResolutionError
# members solve and check through experiments.run_member, so solve and
# the check_* names resolve in kfplab.experiments; this module keeps
# solve because perfbench/spans.py wraps it here too
from .solver.march import (CFL_LIMIT, kernel_path, solve,  # noqa: F401
                           solve_axes, solve_grid)
from .solver.weak import (EmptyBumpError, basis_windows, weak_basis,
                          weak_residual)

__all__ = ["ExperimentConfig", "validate", "run", "main", "parse_seeds"]

# kinds that build a grid and therefore need grid/box/coefficients
_COMPUTE_KINDS = ("solve", "verify", "ensemble")


@dataclasses.dataclass
class ExperimentConfig:
    kind: str = ""
    out: str | None = None
    grid: dict = dataclasses.field(default_factory=dict)
    box: dict = dataclasses.field(default_factory=dict)
    coefficients: dict = dataclasses.field(default_factory=dict)
    checks: list = dataclasses.field(default_factory=list)
    pads: dict = dataclasses.field(default_factory=dict)
    datum: dict = dataclasses.field(default_factory=dict)
    options: dict = dataclasses.field(default_factory=dict)
    strict: bool = False
    threads: int = 1
    unknown_keys: tuple = ()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)} - {"unknown_keys"}
        kwargs = {k: v for k, v in data.items() if k in known}
        unknown = tuple(sorted(set(data) - known))
        return cls(unknown_keys=unknown, **kwargs)


def parse_seeds(text: str) -> list:
    """Seed list syntax: 'a..b' inclusive range or comma-separated ints."""
    text = text.strip()
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# validation

_BOX_KEYS = ("t0", "t1", "x0", "x1", "v0", "v1")
_GRID_SIZE = Interval(2, lo_closed=True, integer=True)
_FINITE = Interval(-math.inf)


_STANDARD = experiments.STANDARD_CONFIG
# numeric fields of the compute kinds -> domain; default None: required,
# other defaults are the standard instance's
_COMPUTE_FIELDS = {
    **{f"grid.{k}": _GRID_SIZE for k in ("nt", "nx", "nv")},
    **{f"box.{k}": _FINITE for k in _BOX_KEYS},
    **{f"pads.{k}": Interval(0.0, lo_closed=True, default=d)
       for k, d in _STANDARD["pads"].items()},
    "coefficients.lam": Interval(0.0),
    "coefficients.Lam": Interval(0.0),
    "coefficients.s_amp": Interval(0.0, lo_closed=True, default=0.0),
    "coefficients.cell_size": Interval(
        0.0, default=_STANDARD["coefficients"]["cell_size"]),
    "datum.floor": Interval(-math.inf, default=_STANDARD["datum"]["floor"]),
    "datum.amp": Interval(-math.inf, default=_STANDARD["datum"]["amp"]),
    "datum.width": Interval(0.0, default=_STANDARD["datum"]["width"]),
}
# fields each kind reads -> domain
_KIND_FIELDS = {
    **dict.fromkeys(_COMPUTE_KINDS, _COMPUTE_FIELDS),
    "constants": {
        "options.delta1": Interval(0.0, 1.0, default=0.5),
        "options.delta2": Interval(0.0, 1.0, default=0.5),
        "options.s_inf": Interval(0.0, lo_closed=True, default=0.0),
        # as_tuple_str prints from the precise strings
        "options.digits": Interval(1, PRECISE_DIGITS + 1, lo_closed=True,
                                   integer=True, default=12),
    },
}
_FIELDS = {name: domain for fields in _KIND_FIELDS.values()
           for name, domain in fields.items()}
# config sections holding the fields above
_SECTIONS = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                  if f.default_factory is dict)
_THREADS = Interval(1, lo_closed=True, integer=True, default=1)


def _violation(field, reason):
    return {"field": field, "reason": reason}


def _reject(violations) -> int:
    print(json.dumps({"error": "validation", "violations": violations},
                     indent=2, sort_keys=True))
    return 2


def _field(config: ExperimentConfig, name: str):
    """Config field 'section.key' coerced into its domain, or its default;
    ValueError when it is required, of the wrong type or outside."""
    section, key = name.split(".")
    data = getattr(config, section)
    value = data.get(key) if isinstance(data, dict) else None
    domain = _FIELDS[name]
    return domain.coerce(name, domain.default if value is None else value)


def _validate_checks(config: ExperimentConfig, safe, grid, out: list):
    """Each check entry of an ensemble (no other kind reads checks)
    against its statement's declaration; its cylinders must fit in the
    safe box when there is one, and hold the cells and per-slice
    x-cells the statement needs on the grid when there is one."""
    if not isinstance(config.checks, list):
        out.append(_violation("checks", "must be a list of check objects"))
        return
    if not config.checks:
        out.append(_violation("checks",
                              "at least one check required for ensemble"))
    for i, entry in enumerate(config.checks):
        field = f"checks[{i}]"
        if not isinstance(entry, dict):
            out.append(_violation(field, "must be an object with a name"))
            continue
        name = entry.get("name")
        statement = STATEMENTS.get(name) if isinstance(name, str) else None
        if statement is None:
            out.append(_violation(f"{field}.name", f"unknown check {name!r}"))
            continue
        try:
            cylinders = statement.cylinders(entry)
        except ValueError as exc:
            out.append(_violation(field, str(exc)))
            continue
        for cyl in cylinders if safe is not None else ():
            desc = cyl.describe()
            label = f"cylinder {desc['kind']} radius {desc['radius']:g}"
            if not safe.contains(cyl.bbox()):
                out.append(_violation(
                    field, f"{label} with bbox {cyl.bbox()} "
                           f"exceeds box minus padding"))
            elif grid is not None:
                cells = grid.cells(cyl, minimum=0)
                if cells.count < statement.min_cells:
                    out.append(_violation(
                        field, f"{label} holds {cells.count} cells of the "
                               f"grid, needs at least {statement.min_cells}"))
                elif statement.min_x_cells:
                    try:
                        cells.x_columns(statement.min_x_cells)
                    except InsufficientResolutionError as exc:
                        out.append(_violation(field, f"{label}: {exc}"))


def _physical_memory() -> int:
    """Bytes of physical memory, the bound on a config's grid."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _validate_compute(config: ExperimentConfig, values: dict, out: list):
    get = values.get

    box = None
    bounds = [get(f"box.{k}") for k in _BOX_KEYS]
    if None not in bounds:
        ordered = True
        for lo, hi in (("t0", "t1"), ("x0", "x1"), ("v0", "v1")):
            if not get(f"box.{lo}") < get(f"box.{hi}"):
                out.append(_violation(f"box.{lo}", f"must be below box.{hi}"))
                ordered = False
        box = Box(*bounds) if ordered else None

    lam, Lam = get("coefficients.lam"), get("coefficients.Lam")
    if None not in (lam, Lam) and not Lam >= lam:
        out.append(_violation("coefficients.Lam",
                              "must be at least coefficients.lam"))

    # the coefficient hash casts floor(coordinate * (1 / cell_size)) to
    # int64; past 2^63 every cell gets the same index
    cell_size = get("coefficients.cell_size")
    if box is not None and cell_size is not None:
        reach = np.floor(max(abs(c) for c in bounds) * (1.0 / cell_size))
        if not reach < 2.0 ** 63:
            out.append(_violation(
                "coefficients.cell_size",
                f"box corner lies {reach:g} cells from the origin; lattice "
                f"cell indices must stay below 2^63"))

    seeds = (config.coefficients.get("seeds", [])
             if isinstance(config.coefficients, dict) else [])
    if not (isinstance(seeds, list) and all(
            isinstance(s, numbers.Integral) and not isinstance(s, bool)
            for s in seeds)):
        out.append(_violation("coefficients.seeds",
                              "must be a list of integers"))
    elif config.kind == "ensemble" and not seeds:
        out.append(_violation("coefficients.seeds",
                              "nonempty seed list required for ensemble"))
    elif outside := sorted(s for s in seeds if not 0 <= s < 2 ** 64):
        # the coefficient hash reads a seed as one uint64
        out.append(_violation("coefficients.seeds",
                              f"seeds {outside} lie outside [0, 2^64)"))
    elif len(set(seeds)) < len(seeds):
        repeated = sorted(s for s, n in Counter(seeds).items() if n > 1)
        out.append(_violation("coefficients.seeds",
                              f"seeds {repeated} repeat; each seed is one "
                              f"member"))

    pad_x, pad_v = get("pads.x"), get("pads.v")
    nt, nx, nv = get("grid.nt"), get("grid.nx"), get("grid.nv")
    if None not in (nt, nx, nv):
        # the march stores up to (nt + 1) nx nv float64 cells; overcommit
        # may grant more than the memory, which then faults in
        cells, memory = (nt + 1) * nx * nv, _physical_memory()
        if 8 * cells > memory:
            out.append(_violation(
                max(("grid.nt", "grid.nx", "grid.nv"), key=get),
                f"grid too large to build: (nt + 1) nx nv = {cells} float64 "
                f"cells exceed the {memory} bytes of physical memory"))
            nt = nx = nv = None  # build no axis
    safe = grid = None
    if box is not None and None not in (pad_x, pad_v):
        if box.x0 + pad_x < box.x1 - pad_x and box.v0 + pad_v < box.v1 - pad_v:
            safe = box.shrink(pad_x, pad_v)
        else:
            out.append(_violation("pads", "padding swallows the whole box"))
    if safe is not None and None not in (nt, nx, nv):
        grid = solve_grid(box, nx, nv, nt, pad_x, pad_v)
        safe = grid.safe_box
    if config.kind == "ensemble":
        _validate_checks(config, safe, grid, out)
    if config.kind == "verify" and grid is not None:
        try:
            basis_windows(grid)
        except EmptyBumpError as exc:
            out.append(_violation(f"grid.{('nt', 'nx', 'nv')[exc.axis]}",
                                  f"{exc}; verify needs a cell in every "
                                  f"default test bump"))
        except ValueError as exc:
            # a support far from the origin rounds past Box.contains' 1e-9
            widest = max(_BOX_KEYS, key=lambda k: abs(get(f"box.{k}")))
            out.append(_violation(f"box.{widest}", f"{exc}; coordinates "
                                  f"this large round past the safe box"))
        try:
            tolerance = grid_tolerance(grid.dt, grid.dx, grid.dv)
        except OverflowError:  # float ** 2 raises where * gives inf
            tolerance = math.inf
        if not math.isfinite(tolerance):
            terms = {"nt": grid.dt, "nx": grid.dx * grid.dx,
                     "nv": grid.dv * grid.dv}
            out.append(_violation(f"grid.{max(terms, key=terms.get)}", (
                f"grid tolerance C_tol (dt + dx^2 + dv^2) overflows at "
                f"(dt, dx, dv) = {(grid.dt, grid.dx, grid.dv)}")))

    if box is not None and None not in (nt, nx, nv):
        cfl = solve_axes(box, nx, nv, nt).cfl
        if cfl > CFL_LIMIT:
            out.append(_violation(
                "grid.nt",
                f"advective CFL {cfl!r} exceeds limit {CFL_LIMIT:g}; "
                f"increase nt or decrease nx"))


def validate(config: ExperimentConfig) -> list:
    """All violations, each naming the offending field and the reason.

    Empty list iff the config is runnable.
    """
    out = []
    if not config.kind:
        out.append(_violation("kind", "required"))
    elif config.kind not in KINDS:
        out.append(_violation("kind",
                              f"unknown kind {config.kind!r}; "
                              f"expected one of {', '.join(KINDS)}"))
    for key in config.unknown_keys:
        out.append(_violation(key, "unknown configuration key"))
    read = set(_KIND_FIELDS.get(config.kind, ()))
    if config.kind in _COMPUTE_KINDS:
        read.add("coefficients.seeds")
    for section in _SECTIONS:
        data = getattr(config, section)
        if not isinstance(data, dict):
            out.append(_violation(section, "must be an object"))
        elif config.kind in KINDS:
            out += [_violation(f"{section}.{key}",
                               f"not read by kind {config.kind!r}")
                    for key in data if f"{section}.{key}" not in read]
    if config.checks and config.kind in KINDS and config.kind != "ensemble":
        out.append(_violation("checks", f"not read by kind {config.kind!r}"))
    if config.out is not None and not isinstance(config.out, str):
        out.append(_violation("out", f"must be a path string, "
                                     f"got {config.out!r}"))
    try:
        _THREADS.coerce("threads", config.threads)
    except ValueError as exc:
        out.append(_violation("threads", str(exc)))
    if not isinstance(config.strict, bool):
        out.append(_violation("strict", f"strict must be true or false, "
                                        f"got {config.strict!r}"))
    values = {}
    for name in _KIND_FIELDS.get(config.kind, ()):
        try:
            values[name] = _field(config, name)
        except ValueError as exc:
            out.append(_violation(name, str(exc)))
    if config.kind in _COMPUTE_KINDS:
        try:
            _validate_compute(config, values, out)
        except (MemoryError, ValueError) as exc:
            # numpy refused an array of the grid or of a cylinder's mask
            if not isinstance(exc, MemoryError) and (
                    "array is too big" not in str(exc)):
                raise
            out.append(_violation(
                max(("grid.nt", "grid.nx", "grid.nv"), key=values.get),
                f"grid too large to build: {type(exc).__name__}: {exc}"))
    return out


# ---------------------------------------------------------------------------
# shared run plumbing

def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _member_config(config: ExperimentConfig, checks=()) -> dict:
    """The compute fields of a valid config, defaults filled in, in the
    sections experiments.run_member reads, with the given checks."""
    sections = {"checks": list(checks)}
    for name in _COMPUTE_FIELDS:
        section, key = name.split(".")
        sections.setdefault(section, {})[key] = _field(config, name)
    return sections


def _error_row(name, seed) -> list:
    return [name, seed, "", "", "", "error", ""]


def _failed(kind, record, names):
    """Exit 1 with a member's error record; names label its summary
    rows."""
    return (1, {"kind": kind, **record},
            [_error_row(name, record["seed"]) for name in names], {})


def _seed_list(config: ExperimentConfig) -> list:
    return [int(s) for s in config.coefficients.get("seeds") or [1]]


_SUMMARY_HEADER = ("statement_id", "seed", "lhs", "rhs",
                   "empirical_constant", "passed", "hypotheses_met")


def _osc_plot_rows(reports) -> list:
    rows = []
    for report in reports:
        if not report.statement_id.startswith("oscillation"):
            continue
        seed = report.provenance.get("seed", "")
        for entry in report.extras.get("per_center", []):
            t0 = entry["center"][0]
            for radius, osc in zip(entry["radii"], entry["oscillations"]):
                rows.append([seed, t0, radius, osc])
    return rows


# kernel-check's pass bounds: the kernel's mass error at each time, the
# range of the PDE residual's refinement ratio, the least factor by
# which the detuned control's residual exceeds it, the semigroup defect
_KERNEL_MASS_TOL = 1e-6
_RESIDUAL_RATIO = (3.2, 4.8)
_CONTROL_FACTOR_MIN = 10.0
_SEMIGROUP_DEFECT_TOL = 1e-8
# convergence's least fitted transport order
_MIN_TRANSPORT_ORDER = 1.8


# ---------------------------------------------------------------------------
# per-kind runners on (config, output directory); each returns
# (exit_code, reports_payload, csv_rows, plot_files) where plot_files
# maps filename -> (header, rows)

def _run_kernel_check(config: ExperimentConfig, out: Path):
    suite = experiments.run_kernel_suite()
    rep_report = suite["representation"]["report"]
    checks = {
        "mass": max(suite["mass_errors"].values()) <= _KERNEL_MASS_TOL,
        "residual_ratio": (_RESIDUAL_RATIO[0] <= suite["residual_ratio"]
                           <= _RESIDUAL_RATIO[1]),
        "negative_control": suite["control_factor"] >= _CONTROL_FACTOR_MIN,
        "semigroup": suite["semigroup_defect"] <= _SEMIGROUP_DEFECT_TOL,
        "representation": rep_report.passed is True,
    }
    payload = {
        "kind": "kernel-check",
        "mass_errors": {f"{t:g}": e for t, e in suite["mass_errors"].items()},
        "residual_coarse": suite["residual_coarse"],
        "residual_fine": suite["residual_fine"],
        "residual_ratio": suite["residual_ratio"],
        "control_factor": suite["control_factor"],
        "semigroup_defect": suite["semigroup_defect"],
        "split_l1": suite["split_l1"],
        "representation": rep_report.to_json_dict(),
        "checks": checks,
    }
    rows = [[name, "", "", "", "", ok, ""] for name, ok in checks.items()]
    code = 0 if all(checks.values()) else 1
    return code, payload, rows, {}


def _run_solve(config: ExperimentConfig, out: Path):
    seed = _seed_list(config)[0]
    record = experiments.run_member(_member_config(config), seed)
    if record["status"] == "error":
        return _failed("solve", record, ["solve"])
    f = record["solution"]
    container = out / f"solution_seed{seed}.kfp"
    f.to_binary(container)
    finite = bool(np.isfinite(f.values).all())
    payload = {
        "kind": "solve",
        "seed": seed,
        "container": container.name,
        "finite": finite,
        "min": f.extrema[0],
        "max": f.extrema[1],
        "final_mass": float(f.values[-1].sum() * f.dx * f.dv),
        "grid": {k: _field(config, f"grid.{k}") for k in ("nt", "nx", "nv")},
        "cfl": f.meta.get("cfl"),
    }
    rows = [["solve", seed, "", "", "", finite, ""]]
    return (0 if finite else 1), payload, rows, {}


def _run_verify(config: ExperimentConfig, out: Path):
    seed = _seed_list(config)[0]
    record = experiments.run_member(_member_config(config), seed,
                                    weak_basis=True)
    if record["status"] == "error":
        return _failed("verify", record, ["residual_sub", "residual_super"])
    f, coef = record["solution"], record["coefficients"]
    basis = weak_basis(f, coef)
    residuals = {d: weak_residual(basis, direction=d)
                 for d in ("sub", "super")}
    payload = {
        "kind": "verify",
        "seed": seed,
        "grid_tolerance": grid_tolerance(f.dt, f.dx, f.dv),
        "residuals": {d: r.to_json_dict() for d, r in residuals.items()},
    }
    rows = [[f"residual_{d}", seed, r.max_residual, r.tolerance, "",
             r.passed, ""] for d, r in residuals.items()]
    ok = all(r.passed for r in residuals.values())
    return (0 if ok else 1), payload, rows, {}


def _run_ensemble(config: ExperimentConfig, out: Path):
    seeds = _seed_list(config)
    sections = _member_config(config, config.checks)

    records = experiments.run_members(
        [(sections, seed) for seed in sorted(seeds)], int(config.threads))

    members = []
    rows = []
    all_reports = []
    for record in records:  # aggregation ordered by seed
        seed = record["seed"]
        if record["status"] == "error":
            members.append(record)
            rows += [_error_row(entry["name"], seed)
                     for entry in config.checks]
            continue
        member = {"seed": seed, "status": "ok", "reports": []}
        for r in record["reports"]:
            if isinstance(r, dict):  # the check raised
                member.setdefault("errors", []).append(r)
                rows.append(_error_row(r["check"], seed))
                continue
            all_reports.append(r)
            member["reports"].append(r.to_json_dict())
            rows.append([r.summary_row()[k] for k in _SUMMARY_HEADER])
        members.append(member)

    payload = {"kind": "ensemble", "seeds": seeds, "members": members}
    const_rows = [[r.statement_id, r.provenance["seed"],
                   "" if r.empirical_constant is None
                   else r.empirical_constant] for r in all_reports]
    plots = {"constants_by_seed.csv":
             (("statement_id", "seed", "empirical_constant"), const_rows)}
    osc_rows = _osc_plot_rows(all_reports)
    if osc_rows:
        plots["osc_vs_radius.csv"] = (
            ("seed", "center_t", "radius", "oscillation"), osc_rows)
    # a run in which no report has a verdict (no check was evaluated,
    # or none had a bound to fail against), a check raised, or a member
    # process died fails whatever the policy; a report without a verdict
    # fails nothing
    verdicts = [r.passed for r in all_reports if r.passed is not None]
    failed = (not verdicts or not all(verdicts)
              or any("errors" in m for m in members)
              or any(m["status"] == "error" and (
                  config.strict or m["error"].startswith(
                      experiments.MEMBER_PROCESS_DIED)) for m in members))
    return (1 if failed else 0), payload, rows, plots


def _run_constants(config: ExperimentConfig, out: Path):
    inputs = {k: _field(config, f"options.{k}")
              for k in ("delta1", "delta2", "s_inf")}
    consts = explicit_constants(**inputs)
    digits = _field(config, "options.digits")
    tup = consts.as_tuple_str(digits)
    print("(r0, eps, theta, nu, mu, alpha) =", tup)
    payload = {
        "kind": "constants",
        "digits": digits,
        "inputs": inputs,
        "tuple_order": ["r0", "eps", "theta", "nu", "mu", "alpha"],
        "values": list(tup),
    }
    rows = [["constants", "", "", "", "", True, ""]]
    return 0, payload, rows, {}


def _run_counterexample(config: ExperimentConfig, out: Path):
    result = experiments.run_counterexample()
    gap_removed = result["gap_removed"]
    fraction = result["intermediate_fraction"]
    # the indicator must be a weak sub-solution for the counterexample
    # to hold; residual_super is the negative control and is only
    # reported
    ok = (fraction == 0.0 and gap_removed.hypotheses_met
          and result["residual_sub"].passed)
    payload = {
        "kind": "counterexample",
        "intermediate_fraction": fraction,
        "nu": result["nu"],
        "gap_removed": gap_removed.to_json_dict(),
        "with_gap": result["with_gap"].to_json_dict(),
        "residual_sub": result["residual_sub"].to_json_dict(),
        "residual_super": result["residual_super"].to_json_dict(),
    }
    rows = [["counterexample_gap_removed", "", fraction, result["nu"], "",
             ok, gap_removed.hypotheses_met]]
    return (0 if ok else 1), payload, rows, {}


def _run_convergence(config: ExperimentConfig, out: Path):
    ladder = experiments.run_transport_convergence()
    ok = ladder["order"] >= _MIN_TRANSPORT_ORDER
    payload = {
        "kind": "convergence",
        "levels": list(experiments.TRANSPORT_LEVELS),
        "hs": ladder["hs"],
        "errors": ladder["errors"],
        "order": ladder["order"],
        "min_order": _MIN_TRANSPORT_ORDER,
    }
    rows = [["transport_order", "", ladder["order"], _MIN_TRANSPORT_ORDER,
             "", ok, ""]]
    plots = {"error_vs_h.csv": (("h", "error"),
                                list(zip(ladder["hs"], ladder["errors"])))}
    return (0 if ok else 1), payload, rows, plots


_RUNNERS = {
    "kernel-check": _run_kernel_check,
    "solve": _run_solve,
    "verify": _run_verify,
    "ensemble": _run_ensemble,
    "constants": _run_constants,
    "counterexample": _run_counterexample,
    "convergence": _run_convergence,
}
KINDS = tuple(_RUNNERS)


def run(config: ExperimentConfig, out_dir=None) -> int:
    """Validate and execute one experiment; write reports to out_dir."""
    violations = validate(config)
    if violations:
        return _reject(violations)

    out = Path(out_dir if out_dir is not None
               else (config.out or "kfplab-out"))
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    code, payload, rows, plots = _RUNNERS[config.kind](config, out)
    _write_json(out / "reports.json", payload)
    _write_csv(out / "summary.csv", _SUMMARY_HEADER, rows)
    for name, (header, plot_rows) in plots.items():
        _write_csv(out / name, header, plot_rows)
    _write_json(out / "metadata.json", {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_seconds": time.time() - t0,
        "threads": int(config.threads),
        "exit_code": code,
        "kernels": kernel_path(),
        "numpy": np.__version__,
    })
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kfplab",
        description="Experiment runner for the kinetic Fokker-Planck lab")
    parser.add_argument("kind", choices=KINDS, help="experiment kind")
    parser.add_argument("--config", help="path to the JSON config")
    parser.add_argument("--out", help="output directory "
                        "(overrides config and KFPLAB_OUT)")
    parser.add_argument("--seeds", help="seed list: 'a..b' or 'a,b,c' "
                        "(overrides the config seed list)")
    parser.add_argument("--strict", action="store_true",
                        help="per-seed solver failures fail the run")
    parser.add_argument("--threads", type=int,
                        help="member workers: this process and forked "
                        "ones; 1 runs every member here "
                        "(overrides KFPLAB_THREADS)")
    args = parser.parse_args(argv)

    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"error": "config",
                              "reason": f"{type(exc).__name__}: {exc}"},
                             indent=2, sort_keys=True))
            return 2
        if not isinstance(data, dict):
            print(json.dumps({"error": "config",
                              "reason": "top level must be an object"},
                             indent=2, sort_keys=True))
            return 2

    if data.get("kind", args.kind) != args.kind:
        return _reject([_violation(
            "kind", f"config kind {data['kind']!r} does not match "
            f"subcommand {args.kind!r}")])
    data["kind"] = args.kind

    if args.seeds:
        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as exc:
            return _reject([_violation("seeds", str(exc))])
        data.setdefault("coefficients", {})["seeds"] = seeds
    if args.strict:
        data["strict"] = True

    threads = args.threads
    if threads is None and os.environ.get("KFPLAB_THREADS"):
        try:
            threads = int(os.environ["KFPLAB_THREADS"])
        except ValueError:
            return _reject([_violation("KFPLAB_THREADS",
                                       "must be an integer")])
    if threads is not None:
        data["threads"] = threads

    out = args.out or os.environ.get("KFPLAB_OUT") or None

    config = ExperimentConfig.from_dict(data)
    return run(config, out_dir=out)


if __name__ == "__main__":
    raise SystemExit(main())
