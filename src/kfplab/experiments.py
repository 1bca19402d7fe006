"""Frozen laboratory instances feeding the estimate suite.

Each function defines one reproducible numerical experiment: boxes,
grids, coefficient draws, and data are pinned so repeated runs produce
identical floating-point output.  The families:

  * standard ensemble: rough-coefficient solves for the calibrated
    interior estimates (energy, integrability and regularity gains,
    sup bounds), plus refinement and enlarged-box variants, each paired
    with the ensemble's member of its seed.  The standard instance is
    one config, STANDARD_CONFIG, and its members run through
    run_member, the member path the CLI shares, on one worker per
    available core (run_members);
  * poincare instance: an exact kernel translate whose mass sweeps
    across the unit cylinder;
  * mixing instance: a solver-generated field cold and hot on
    prescribed fractions, for the intermediate-value occupation lemma;
  * traveling indicator: the sharp obstruction once the time gap
    between the cold and hot cylinders is removed;
  * harnack suite: kernel translates observed near the origin, an
    exact-volume constant instance, and invariance instances under
    translation and dilation;
  * oscillation study: decay exponents fitted across one zoom level;
  * solver oracle: constant-coefficient solve against the kernel
    convolution;
  * transport ladder: mesh-refinement order of the streaming part;
  * kernel suite: normalization, PDE residual with a negative control,
    and a representation-bound instance.

Grid spacings are chosen so every cylinder-mask boundary falls strictly
between cell centers (margins of a tenth of a cell or better): mask
membership then never hinges on a floating-point tie.  Where a
criterion needs an exactly tiled volume, the axes are instead aligned
so ball edges coincide with cell edges.  Sampled grids use time slices
offset half a step past the cylinder tops for the same reason; the
solver's own grids keep their top slice on the final time, where the
closed window boundary compares exactly.
"""

from __future__ import annotations

import os

import numpy as np

# run_member resolves check_<name> among this module's names at call
# time, so a wrapper set on one of them here sees every check a member
# makes
from .estimates.checks import (  # noqa: F401
    HARNACK_R0,
    STATEMENTS,
    check_energy_estimate,
    check_gain_integrability,
    check_harnack,
    check_ivl,
    check_kolm_lp_bound,
    check_linfty_bound,
    check_measure_to_pointwise,
    check_oscillation_decay,
    check_sobolev_gain,
    check_weak_harnack,
    check_weak_poincare,
)
from .estimates.constants import explicit_constants
from .estimates.norms import inf_on, lp_norm, sup_on
from .geometry import (
    compose,
    make_cylinder,
    scale_cylinder,
    translate_cylinder,
)
from .kernel import (
    detuned_kernel,
    convolve_representation,
    kernel_mass,
    kernel_pde_residual,
    semigroup_defect,
    split_kernel_l1,
    smooth_step,
)
from .solver.coefficients import constant_coefficients, make_rough_coefficients
from .solver.grid import Box, GridFunction, centered_axis, sample_function
from .solver.march import fit_order, solve, solve_grid
from .solver.weak import (
    basis_read_window,
    indicator_subsolution,
    translated_kernel_solution,
    weak_basis,
    weak_residual,
)

__all__ = [
    "POINCARE_EPS",
    "ENSEMBLE_SEEDS",
    "REFINEMENT_SEEDS",
    "BOUNDARY_SEEDS",
    "STANDARD_CONFIG",
    "run_member",
    "run_members",
    "run_standard_ensemble",
    "run_refinement_pairs",
    "run_boundary_pairs",
    "run_poincare",
    "run_poincare_constant",
    "run_mixing_instance",
    "run_counterexample",
    "HARNACK_POLES",
    "harnack_observation_axes",
    "harnack_edge_axes",
    "run_harnack_member",
    "run_harnack_constant",
    "run_harnack_volume",
    "run_harnack_invariance",
    "run_harnack_suite",
    "OSC_SEEDS",
    "run_oscillation_member",
    "run_oscillation_study",
    "pinned_constants_tuple",
    "run_solver_oracle",
    "run_solver_oracle_study",
    "run_transport_convergence",
    "run_kernel_suite",
    "lifted_copy",
]

POINCARE_EPS = (0.5, 0.25, 0.1)

# Constant instances use a dyadic value: sums and means of identical
# copies are then exact, so zero left sides come out exactly zero.
CONSTANT_LEVEL = 0.75


def _half_offset_times(n, dt):
    """n uniform slice times, the last half a step above 0.

    Every integer multiple of dt at or below 0 then lies midway between
    slices, so cylinder windows with such boundaries have exact slice
    counts regardless of rounding.
    """
    return dt * (np.arange(n) - (n - 1.5))


def _constant_grid(times, xs, vs):
    return sample_function(
        lambda T, X, V: np.full(np.broadcast(T, X, V).shape, CONSTANT_LEVEL),
        times, xs, vs, meta={"scheme": "constant", "value": CONSTANT_LEVEL})


def lifted_copy(f: GridFunction, amount: float) -> GridFunction:
    """f + amount on the same grid.

    Adding a constant commutes with the transport derivative and the
    velocity divergence, so solutions and sub-solutions are preserved
    exactly; only level-set statements shift.
    """
    meta = dict(f.meta or {})
    meta["lifted_by"] = float(amount)
    return GridFunction(f.times, f.xs, f.vs, f.values + float(amount),
                        pad_x=f.pad_x, pad_v=f.pad_v,
                        solve_box=f.solve_box, meta=meta)


# ------------------------------------------------------------------
# standard ensemble


# The standard instance, in the sections of a compute config.  Its rough
# draw is resolved by the base grid: cells of size 0.1 cover 5.1 x-cells
# and 1.8 v-cells, so one refinement sees the same field rather than a
# new roughness scale.  The datum is a Gaussian bump over a positive
# floor; the floor keeps the field bounded away from zero so quasi-norms
# stay informative, and its boundary values are flat, limiting box-edge
# sensitivity.
STANDARD_CONFIG = {
    "grid": {"nt": 128, "nx": 256, "nv": 128},
    "box": {"t0": -1.2, "t1": 0.0, "x0": -2.5, "x1": 2.5,
            "v0": -3.5, "v1": 3.5},
    "pads": {"x": 1.0, "v": 2.0},
    "coefficients": {"lam": 0.2, "Lam": 1.0, "s_amp": 0.1, "cell_size": 0.1},
    "datum": {"floor": 0.15, "amp": 1.0, "width": 0.25},
    "checks": [
        {"name": "energy_estimate"},
        {"name": "gain_integrability", "p": 2.0},
        {"name": "gain_integrability", "p": 2.4},
        {"name": "sobolev_gain", "sigma": 0.1},
        {"name": "sobolev_gain", "sigma": 0.25},
        {"name": "linfty_bound", "zeta": 0.5},
        {"name": "linfty_bound", "zeta": 2.0},
    ],
}
ENSEMBLE_SEEDS = tuple(range(1, 21))
REFINEMENT_SEEDS = (1, 2, 3, 4, 5)
BOUNDARY_SEEDS = (1, 7, 13)
BOUNDARY_SCALE = 1.5
# The studies' members run at most this many at once.  Each worker adds
# its member's memory: the five refine-2 members of the refinement
# pairs, the largest, peak at a summed Pss of 167, 268-308, 366-421 and
# 549-566 MiB at 1 to 4 workers; oscillation members at 94, 160, 219
# and 291 MiB; standard members at 50, 73, 88 and 113 MiB.  The cap also
# holds where a CPU quota, which the core count does not see, leaves
# fewer cores.
STUDY_WORKERS = 4


def _datum(floor, amp, width):
    def datum(x, v):
        return floor + amp * np.exp(-(x * x + v * v) / (2.0 * width ** 2))

    return datum


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _checked_window(checks, grid: GridFunction):
    """solve's window: the (x, v) part of the read_window of the checks'
    declared cylinders (STATEMENTS entries) on the grid solve would
    return (solve_grid).  A check whose cylinders do not build is left
    out, since it raises the same error before it reads a cell; None
    (the whole grid) when no cylinder builds."""
    cylinders = []
    for entry in checks:
        try:
            cylinders += STATEMENTS[entry["name"]].cylinders(entry)
        except Exception:  # the check reports it
            pass
    return grid.read_window(cylinders)[1:] if cylinders else None


def run_member(config: dict, seed: int, *, weak_basis=False) -> dict:
    """Solve one member of a config and run its checks (STATEMENTS
    entries, each through check_<name> of this module with the entry's
    declared parameters); datum floor + amp exp(-(x^2 + v^2) / (2 width^2)).

    solve takes the grid section as keywords (store_every too, where
    given) and stores only the _checked_window of the checks, the whole
    grid when there are none.  weak_basis, for a config without checks
    whose solution goes to weak_basis with the default bumps, stores
    instead the (x, v) part of basis_read_window on the grid solve
    would return.  The record holds the solution, the coefficient field
    and the reports in check order, a check that raised as
    {"check", "error"} in its place; a solve that raised gives
    {"seed", "status": "error", "error"} instead."""
    seed = int(seed)
    pads, grid = config["pads"], config["grid"]
    try:
        coef = make_rough_coefficients(seed, **config["coefficients"])
        box = Box(**config["box"])
        whole = solve_grid(box, grid["nx"], grid["nv"], grid["nt"],
                           pads["x"], pads["v"])
        window = (basis_read_window(whole)[1:] if weak_basis
                  else _checked_window(config["checks"], whole))
        f = solve(_datum(**config["datum"]), coef, box, **grid,
                  pad_x=pads["x"], pad_v=pads["v"], window=window)
    except Exception as exc:  # the member fails, its caller decides
        return {"seed": seed, "status": "error", "error": _error_text(exc)}
    reports = []
    for entry in config["checks"]:
        name = entry["name"]
        try:
            check = globals()[f"check_{name}"]
            report = check(f, coef, **STATEMENTS[name].parameters(entry))
        except Exception as exc:  # one check's failure keeps the others
            reports.append({"check": name, "error": _error_text(exc)})
            continue
        report.provenance["seed"] = seed
        reports.append(report)
    return {"seed": seed, "status": "ok", "solution": f,
            "coefficients": coef, "reports": reports}


def _member_record(job) -> dict:
    """run_member's record of one (config, seed) job, without its
    solution."""
    record = run_member(*job)
    record.pop("solution", None)
    return record


def run_members(jobs, workers: int) -> list:
    """run_member's records of the (config, seed) jobs in job order, each
    without its solution, spread over n = min(workers, len(jobs))
    workers.  This process is one of them: it runs every n-th job,
    starting with the first, while a pool of n - 1 processes forked from
    it runs the others, so n = 1 runs every job here and builds no pool.
    Forked workers start with this process's imported modules, and any
    attribute a caller set on them, already in place.  No other thread
    of the caller may run while the pool forks; where the platform
    cannot fork, every job runs here."""
    jobs = list(jobs)
    n = min(workers, len(jobs)) if hasattr(os, "fork") else 1
    if n <= 1:
        return [_member_record(job) for job in jobs]
    # imported here, since they add about 20 ms to the start of every
    # process that imports this module, and only a pool needs them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    records = [None] * len(jobs)
    pooled = [i for i in range(len(jobs)) if i % n]
    with ProcessPoolExecutor(n - 1, mp_context=fork) as pool:
        results = pool.map(_member_record, [jobs[i] for i in pooled])
        for i in range(0, len(jobs), n):
            records[i] = _member_record(jobs[i])
        for i, record in zip(pooled, results):
            records[i] = record
    return records


def _checked(instance, record) -> dict:
    """A run_member record's seed and reports; RuntimeError if its solve
    or a check raised, "<instance> member <seed>: " and the errors."""
    errors = ([record["error"]] if record["status"] == "error" else
              [f"{r['check']}: {r['error']}" for r in record["reports"]
               if isinstance(r, dict)])
    if errors:
        raise RuntimeError(
            f"{instance} member {record['seed']}: {'; '.join(errors)}")
    return {"seed": record["seed"], "reports": record["reports"]}


def _checked_members(instance, config, seeds) -> list:
    """_checked of each seed's member of config, the members spread over
    one worker per core this process may run on, at most STUDY_WORKERS;
    one where the platform does not say which cores those are."""
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else 1)
    records = run_members([(config, seed) for seed in seeds],
                          min(cores, STUDY_WORKERS))
    return [_checked(instance, record) for record in records]


def _standard_config(refine=1, box_scale=1.0) -> dict:
    """The standard instance; refine multiplies every size; box_scale
    widens the x and v extents at the same spacings, so overlapping
    cell centers coincide exactly (scale 1.5 shifts the axes by whole
    cells: 64 in x, 32 in v at the base resolution)."""
    g, b = STANDARD_CONFIG["grid"], STANDARD_CONFIG["box"]
    return dict(
        STANDARD_CONFIG,
        grid={"nt": g["nt"] * refine,
              "nx": int(round(g["nx"] * box_scale)) * refine,
              "nv": int(round(g["nv"] * box_scale)) * refine},
        box=dict(b, **{k: box_scale * b[k]
                       for k in ("x0", "x1", "v0", "v1")}))


def run_standard_ensemble() -> list:
    return _checked_members("standard", _standard_config(), ENSEMBLE_SEEDS)


def _variant_pairs(ensemble, config, seeds) -> list:
    """(seed, base, variant) empirical constants by statement id of each
    seed: base from the ensemble's member of that seed, variant from
    config's member, the variants run as the ensemble's members are."""
    def constants(member):
        return {r.statement_id: r.empirical_constant
                for r in member["reports"]}

    base = {member["seed"]: constants(member) for member in ensemble}
    return [(member["seed"], base[member["seed"]], constants(member))
            for member in _checked_members("standard", config, seeds)]


def run_refinement_pairs(ensemble) -> list:
    """Empirical constants of each REFINEMENT_SEEDS member at the base
    grid, read from the ensemble (run_standard_ensemble), and at one
    refinement."""
    return [{"seed": seed, "base": cb, "fine": cf,
             "ratios": {sid: cf[sid] / cb[sid] for sid in cb}}
            for seed, cb, cf in _variant_pairs(
                ensemble, _standard_config(refine=2), REFINEMENT_SEEDS)]


def run_boundary_pairs(ensemble) -> list:
    """Relative shift of every constant of each BOUNDARY_SEEDS member,
    its base read from the ensemble (run_standard_ensemble), when the
    solve box x and v extents grow by half while the cylinders stay
    put."""
    return [{"seed": seed, "base": cb, "wide": cw,
             "shifts": {sid: abs(cw[sid] / cb[sid] - 1.0) for sid in cb}}
            for seed, cb, cw in _variant_pairs(
                ensemble, _standard_config(box_scale=BOUNDARY_SCALE),
                BOUNDARY_SEEDS)]


# ------------------------------------------------------------------
# weak poincare instance


POINCARE_POLE = (-3.0, -6.0, 2.0)
POINCARE_BOX = Box(-25.2, 0.0, -126.0, 126.0, -7.0, 7.0)


def _poincare_axes(nt, nx, nv):
    """Cell-centered axes of the box, the last slice at t = 0."""
    b = POINCARE_BOX
    dt = (b.t1 - b.t0) / nt
    return (dt * (np.arange(nt) + 1.0 - nt), centered_axis(b.x0, b.x1, nx),
            centered_axis(b.v0, b.v1, nv))


def poincare_instance() -> GridFunction:
    """Kernel translate whose peak sweeps into the unit ball only near
    t = 0, so the field genuinely exceeds its average over the earlier
    cylinder and the positive-part left side is nonzero.  The pole lies
    inside the box but its concentration time falls between grid slices
    and its x-offset misses the nearest cell center by many widths, so
    no lattice value is anywhere near singular."""
    return translated_kernel_solution(POINCARE_POLE,
                                      *_poincare_axes(128, 256, 128),
                                      pad_x=1.0, pad_v=2.0)


def _poincare_parameters(eps) -> dict:
    """eps with the statement's declared sigma."""
    return STATEMENTS["weak_poincare"].parameters({"eps": eps})


def run_poincare() -> dict:
    f = poincare_instance()
    coef = constant_coefficients(1.0, 0.0, 0.0)
    reports = [check_weak_poincare(f, coef, **_poincare_parameters(eps))
               for eps in POINCARE_EPS]
    return {"reports": reports}


def run_poincare_constant() -> dict:
    """Constant field: the positive-part left side must vanish exactly;
    the constant is dyadic so the cylinder average is exact.  The grid
    is only fine enough to resolve the unit balls inside the wide box."""
    f = _constant_grid(*_poincare_axes(56, 512, 32))
    report = check_weak_poincare(f, constant_coefficients(1.0, 0.0, 0.0),
                                 **_poincare_parameters(0.25))
    return {"report": report, "lhs": report.lhs}


# ------------------------------------------------------------------
# mixing instance for the intermediate-value lemma


MIXING_SEED = 11
MIXING_BOX = Box(-0.26, 0.0, -0.4, 0.4, -0.6, 0.6)
MIXING_DELTAS = (0.3, 0.3)
# Lift past the implicit-solve round-off: plateau cells sit within 1e-13
# of the datum level 1 except where diffusion from the dip reaches
# (deficits 7e-11 and beyond), so 1e-12 separates the two populations.
PLATEAU_LIFT = 1e-12


def mixing_coefficients():
    """Diffusion small enough that the dip neither fills in nor leaks
    into the hot plateau beyond round-off over the 0.26 time span."""
    return make_rough_coefficients(MIXING_SEED, lam=5e-9, Lam=1e-8,
                                   cell_size=0.05, s_amp=0.0)


def mixing_datum(x, v):
    """Level 1 with a smooth dip to -0.3 in a narrow v-band near
    v = 0.026, off-center so the cold and hot v-cells interleave the
    half cylinder asymmetrically."""
    dip = smooth_step(1.0 + np.clip((np.abs(v - 0.026) - 0.014) / 0.012,
                                    0.0, None))
    return 1.0 - 1.3 * dip + 0.0 * x


def mixing_instance() -> GridFunction:
    f = solve(mixing_datum, mixing_coefficients(), MIXING_BOX,
              nx=81, nv=300, nt=208, pad_x=0.2, pad_v=0.1)
    return lifted_copy(f, PLATEAU_LIFT)


def run_mixing_instance() -> dict:
    coef = mixing_coefficients()
    f = mixing_instance()
    ivl = check_ivl(f, coef, *MIXING_DELTAS)
    return {
        "ivl": ivl,
        "measure_to_pointwise": check_measure_to_pointwise(f, coef, 0.25),
        "nu": ivl.extras["nu"],
        "residual_sub": weak_residual(weak_basis(f, coef), direction="sub"),
    }


# ------------------------------------------------------------------
# traveling-indicator counterexample


# The line x = LINE_OFFSET - LINE_SPEED t rises 0.9 dx per slice, so it
# dwells inside the four-column x-ball around the early/late junction
# and clears it well before the windows end; 0.56 exceeds the largest
# cell-center speed 0.5008, keeping the indicator a weak sub-solution.
LINE_SPEED = 0.56
CE_DX = 6.25e-5
CE_DT = 0.9 * CE_DX / LINE_SPEED
CE_NT, CE_NX, CE_NV = 2492, 4004, 5
LINE_OFFSET = 2.8125e-5 - 25.0 * (0.9 * CE_DX)
CE_DELTAS = (0.02, 0.02)


def counterexample_axes():
    times = CE_DT * (np.arange(CE_NT) + 1.0 - CE_NT)
    xs = (np.arange(CE_NX) - 2001.5) * CE_DX
    vs = centered_axis(-0.501, 0.501, CE_NV)
    return times, xs, vs


def counterexample_instance() -> GridFunction:
    return indicator_subsolution(LINE_SPEED, LINE_OFFSET,
                                 *counterexample_axes())


def counterexample_companion() -> GridFunction:
    """Coarser grid with the same extents for the weak-residual
    verification: test bumps need several cells per support."""
    dt = 0.2505 / 240.0
    times = dt * (np.arange(240) + 1.0 - 240)
    xs = centered_axis(-0.1251, 0.1251, 160)
    vs = centered_axis(-0.501, 0.501, 36)
    return indicator_subsolution(LINE_SPEED, LINE_OFFSET, times, xs, vs)


def run_counterexample() -> dict:
    """Gap-removed occupation check on the traveling indicator.

    With the time gap removed the early and late cylinders share their
    x-ball across the junction; the indicator is cold and hot on the
    required fractions there yet takes no intermediate values at all,
    so the occupation fraction is exactly zero against a positive nu.
    With the gap restored the line has already swept past: the early
    cylinder is all hot and the hypotheses are not met.  The weak
    residuals of the companion indicator show it is a sub-solution;
    the super direction is the negative control.
    """
    coef = constant_coefficients(1.0, 0.0, 0.0)
    f = counterexample_instance()
    gap_removed = check_ivl(f, coef, *CE_DELTAS, time_gap=False)
    with_gap = check_ivl(f, coef, *CE_DELTAS, time_gap=True)
    g = counterexample_companion()
    basis = weak_basis(g, coef)
    return {
        "gap_removed": gap_removed,
        "with_gap": with_gap,
        "intermediate_fraction": gap_removed.extras["fraction_intermediate"],
        "nu": gap_removed.extras["nu"],
        "residual_sub": weak_residual(basis, direction="sub"),
        "residual_super": weak_residual(basis, direction="super"),
    }


# ------------------------------------------------------------------
# harnack suite


# Eight slices per (r0/2)^2 window; every cylinder time boundary in the
# suite is an integer multiple of this step.
HARNACK_DT = (0.5 * HARNACK_R0) ** 2 / 8.0
HARNACK_ZETAS = (0.5, 1.0)
HARNACK_POLES = (
    (-0.6, 0.0, 0.0),
    (-0.75, 0.08, -0.35),
    (-0.9, -0.15, 0.3),
    (-1.05, 0.2, 0.45),
    (-1.2, -0.3, -0.5),
    (-1.35, 0.35, 0.2),
    (-1.5, -0.4, 0.6),
    (-1.65, 0.12, -0.25),
    (-1.8, -0.05, 0.15),
    (-0.5, 0.25, -0.6),
)
_OBS_DX = 6.1e-6
_OBS_DV = 0.00215
_EDGE_DX = 7.8125e-6
_EDGE_DV = 0.002


def harnack_observation_axes():
    """Cell-centered axes around the origin covering every cylinder of
    the pointwise and quasi-norm bounds, including the past cylinder of
    radius r0 (times to -3 r0^2, x to r0^3, v to r0).

    x = 0 is a cell center so the (r0/4)^3 ball resolves; the spacings
    place all ball edges strictly between centers.
    """
    times = _half_offset_times(98, HARNACK_DT)
    xs = _OBS_DX * (np.arange(41) - 20.0)
    vs = _OBS_DV * (np.arange(48) - 23.5)
    return times, xs, vs


def harnack_edge_axes():
    """Edge-aligned axes: x = 0 and v = 0 sit on cell edges and the
    (r0/2)-cylinder balls tile whole cells, so counting cells times the
    cell measure reproduces the cylinder volume exactly."""
    times = _half_offset_times(98, HARNACK_DT)
    xs = _EDGE_DX * (np.arange(34) - 16.5)
    vs = _EDGE_DV * (np.arange(51) - 25.0)
    return times, xs, vs


def run_harnack_member(pole) -> dict:
    f = translated_kernel_solution(pole, *harnack_observation_axes())
    coef = constant_coefficients(1.0, 0.0, 0.0)
    return {
        "pole": tuple(float(c) for c in pole),
        "harnack": check_harnack(f, coef),
        "weak": check_weak_harnack(f, coef, HARNACK_ZETAS[0]),
    }


def run_harnack_constant() -> dict:
    """Constant positive field: sup equals inf, the ratio is exactly 1."""
    f = _constant_grid(*harnack_observation_axes())
    report = check_harnack(f, constant_coefficients(1.0, 0.0, 0.0))
    return {"report": report, "ratio": report.empirical_constant}


def run_harnack_volume() -> dict:
    """zeta = 1 quasi-norm of a constant on the edge-aligned grid
    against the constant times the exact cylinder volume."""
    f = _constant_grid(*harnack_edge_axes())
    report = check_weak_harnack(f, constant_coefficients(1.0, 0.0, 0.0),
                                zeta=1.0)
    tilde = _harnack_pair("weak_harnack")[0]
    analytic = CONSTANT_LEVEL * tilde.volume()
    return {
        "report": report,
        "lhs": report.lhs,
        "analytic": analytic,
        "rel_err": abs(report.lhs / analytic - 1.0),
    }


def _harnack_pair(name, g=None):
    """The first two cylinders STATEMENTS[name] declares, moved by g."""
    pair = STATEMENTS[name].cylinders()[:2]
    return pair if g is None else tuple(translate_cylinder(g, c) for c in pair)


def _strong_ratio(f, cyls):
    upper, lower = cyls
    return sup_on(f, upper) / inf_on(f, lower)


def _weak_ratio(f, cyls, normalized=False):
    zeta = HARNACK_ZETAS[0]
    tilde, lower = cyls
    lhs = lp_norm(f, tilde, zeta)
    if normalized:
        lhs = lhs / tilde.volume() ** (1.0 / zeta)
    return lhs / inf_on(f, lower)


INVARIANCE_POLE = (-0.9, -0.15, 0.3)


def run_harnack_invariance() -> dict:
    """Harnack-type ratios of one kernel translate recomputed in moved
    frames.

    Three comparisons against the origin instance:

      * a translation whose velocity shears the x-lattice by a whole
        number of cells per slice, so translated masks reproduce the
        original cell-for-cell;
      * a generic translation (lattice-incommensurate shear) checked on
        the pointwise sup/inf ratio, whose arg-extrema are interior and
        insensitive to which boundary cells a mask picks up;
      * the dilation r = 1/2, under which axes and cell measures scale
        by exact powers of two; the quasi-norm ratio is compared per
        unit cylinder volume, the scale-free form.
    """
    pole = INVARIANCE_POLE
    dtt, dx, dv = HARNACK_DT, _OBS_DX, _OBS_DV

    times_a, xs_a, vs_a = harnack_observation_axes()
    f_a = translated_kernel_solution(pole, times_a, xs_a, vs_a)
    strong = _harnack_pair("harnack")
    weak = _harnack_pair("weak_harnack")
    strong_a = _strong_ratio(f_a, strong)
    weak_a = _weak_ratio(f_a, weak)
    weak_a_norm = _weak_ratio(f_a, weak, normalized=True)

    # lattice-commensurate translation: v1 dt = 4 dx exactly by choice
    g1 = (-166.0 * dtt, 51.0 * dx, 4.0 * dx / dtt)
    times_c = g1[0] + dtt * (np.arange(98) - 96.5)
    xs_c = dx * np.arange(-356, 75)
    vs_c = g1[2] + dv * (np.arange(48) - 23.5)
    f_c = translated_kernel_solution(compose(g1, pole), times_c, xs_c, vs_c)
    strong_c = _strong_ratio(f_c, _harnack_pair("harnack", g1))
    weak_c = _weak_ratio(f_c, _harnack_pair("weak_harnack", g1))

    # generic translation: shear 2.08 cells per slice, anchored so the
    # small upper and lower balls still catch a column on their slices
    v2 = 2.08 * dx / dtt
    g2 = (-0.0077, 76.5 * dtt * v2, v2)
    times_d = g2[0] + dtt * (np.arange(98) - 96.5)
    xs_d = dx * np.arange(-63, 182)
    vs_d = g2[2] + dv * (np.arange(48) - 23.5)
    f_d = translated_kernel_solution(compose(g2, pole), times_d, xs_d, vs_d)
    strong_d = _strong_ratio(f_d, _harnack_pair("harnack", g2))

    # dilation by 1/2: exact in floating point, values carry over
    r = 0.5
    f_e = GridFunction(r * r * times_a, r ** 3 * xs_a, r * vs_a,
                       f_a.values.copy())
    strong_e = _strong_ratio(f_e, [scale_cylinder(r, c) for c in strong])
    weak_e_norm = _weak_ratio(f_e, [scale_cylinder(r, c) for c in weak],
                              normalized=True)

    return {
        "pole": tuple(float(c) for c in pole),
        "base": {"strong": strong_a, "weak": weak_a,
                 "weak_normalized": weak_a_norm},
        "translation_commensurate": {
            "strong": strong_c,
            "weak": weak_c,
            "strong_rel": abs(strong_c / strong_a - 1.0),
            "weak_rel": abs(weak_c / weak_a - 1.0),
        },
        "translation_generic": {
            "strong": strong_d,
            "strong_rel": abs(strong_d / strong_a - 1.0),
        },
        "scaling_half": {
            "strong": strong_e,
            "weak_normalized": weak_e_norm,
            "strong_rel": abs(strong_e / strong_a - 1.0),
            "weak_normalized_rel": abs(weak_e_norm / weak_a_norm - 1.0),
        },
    }


def run_harnack_suite() -> dict:
    members = [run_harnack_member(pole) for pole in HARNACK_POLES]
    reports = []
    for m in members:
        reports.extend([m["harnack"], m["weak"]])
    constant = run_harnack_constant()
    volume = run_harnack_volume()
    reports.append(constant["report"])
    reports.append(volume["report"])
    return {
        "members": members,
        "reports": reports,
        "constant": constant,
        "volume": volume,
        "invariance": run_harnack_invariance(),
    }


# ------------------------------------------------------------------
# oscillation decay study


OSC_SEEDS = tuple(range(1, 21))
OSC_BOX = Box(-1.25, 0.0, -2.4, 2.4, -3.0, 3.0)
# dt and dv avoid integer ratios with the unit cylinder windows and
# balls; nx keeps the advection step inside the solver's CFL guard.
OSC_GRID = (800, 304, 172)  # nx, nv, nt
OSC_PADS = (1.0, 1.9)
OSC_CENTER_TARGETS = ((-0.2, 0.06), (0.0, -0.01), (0.25, -0.06))


def _snap(axis, target):
    return float(axis[int(np.argmin(np.abs(axis - target)))])


def oscillation_centers(grid: GridFunction):
    """Zoom centers snapped to cell centers at the final time, so the
    innermost cylinder always catches its column of cells."""
    t0 = float(grid.times[-1])
    return tuple((t0, _snap(grid.xs, x0), _snap(grid.vs, v0))
                 for x0, v0 in OSC_CENTER_TARGETS)


def _oscillation_config() -> dict:
    nx, nv, nt = OSC_GRID
    centers = oscillation_centers(solve_grid(OSC_BOX, nx, nv, nt, *OSC_PADS))
    return dict(
        STANDARD_CONFIG,
        grid={"nt": nt, "nx": nx, "nv": nv, "store_every": 2},
        box=OSC_BOX.as_dict(), pads={"x": OSC_PADS[0], "v": OSC_PADS[1]},
        checks=[{"name": "oscillation_decay", "levels": 1,
                 "centers": centers}])


def _oscillation_member(member) -> dict:
    (report,) = member["reports"]
    return {"seed": member["seed"], "report": report}


def run_oscillation_member(seed) -> dict:
    return _oscillation_member(_checked("oscillation", run_member(
        _oscillation_config(), seed)))


def run_oscillation_study() -> list:
    return [_oscillation_member(member) for member in _checked_members(
        "oscillation", _oscillation_config(), OSC_SEEDS)]


def pinned_constants_tuple(digits=12) -> str:
    """The (r0, eps, theta, nu, mu, alpha) tuple of the source-free
    constants pipeline at delta1 = delta2 = 1/2, printed to the given
    significant digits from the high-precision evaluation."""
    return explicit_constants(0.5, 0.5, 0.0).as_tuple_str(digits)


# ------------------------------------------------------------------
# solver against the kernel convolution


ORACLE_BOX = Box(0.0, 0.4, -2.0, 2.0, -2.5, 2.5)
ORACLE_GRID = (256, 128, 128)  # nx, nv, nt
ORACLE_WIDTH = 0.3
ORACLE_CYLINDER_CENTER = (0.4, 0.0, 0.0)
ORACLE_CYLINDER_RADIUS = 0.25
ORACLE_PAD = 1.0  # in x and in v


def oracle_datum(x, v):
    return np.exp(-(x * x + v * v) / (2.0 * ORACLE_WIDTH ** 2))


def run_solver_oracle(refine=1) -> dict:
    """Constant-coefficient solve against the kernel convolution of the
    same initial datum, compared in sup norm on an interior cylinder
    anchored at the final time.

    The solve stores only the (x, v) read_window of that cylinder; the
    datum is convolved over the whole grid's axes."""
    nx0, nv0, nt0 = ORACLE_GRID
    nx, nv, nt = nx0 * refine, nv0 * refine, nt0 * refine
    coef = constant_coefficients(1.0, 0.0, 0.0)
    cyl = make_cylinder("centered", ORACLE_CYLINDER_CENTER,
                        ORACLE_CYLINDER_RADIUS)
    window = solve_grid(ORACLE_BOX, nx, nv, nt, ORACLE_PAD,
                        ORACLE_PAD).read_window([cyl])[1:]
    f = solve(oracle_datum, coef, ORACLE_BOX, nx=nx, nv=nv, nt=nt,
              pad_x=ORACLE_PAD, pad_v=ORACLE_PAD, window=window)
    cells = f.cells(cyl)
    numeric = cells.values
    xs, vs = f.whole_axes
    source = (np.array([0.0]), xs, vs,
              oracle_datum(xs[:, None], vs[None, :])[None, :, :])
    oracle = convolve_representation(source, cells.centers())
    scale0 = float(np.max(np.abs(oracle)))
    err = float(np.max(np.abs(numeric - oracle))) / scale0
    return {
        "refine": int(refine),
        "sup_rel_error": err,
        "n_points": int(numeric.size),
        "oracle_sup": scale0,
    }


def run_solver_oracle_study() -> dict:
    base = run_solver_oracle(refine=1)
    fine = run_solver_oracle(refine=2)
    return {
        "base": base,
        "refined": fine,
        "ratio": base["sup_rel_error"] / fine["sup_rel_error"],
    }


# ------------------------------------------------------------------
# transport convergence ladder


TRANSPORT_BOX = Box(0.0, 0.5, -2.0, 2.0, -1.5, 1.5)
TRANSPORT_GRID = (96, 24, 32)  # nx, nv, nt at the base level
TRANSPORT_LEVELS = (1, 2, 4)  # refinements of nx and nt


def transport_datum(x, v):
    return np.exp(-x * x / 0.18) * np.exp(-v * v / 0.32)


def run_transport_convergence() -> dict:
    """Free-streaming refinement ladder: diffusion is turned down to a
    negligible level and the final slice, the only one each solve
    stores past the datum, is compared against the shifted datum on the
    uncontaminated interior |x| <= 1."""
    coef = constant_coefficients(1e-12, 0.0, 0.0)
    nx0, nv0, nt0 = TRANSPORT_GRID
    t_final = TRANSPORT_BOX.t1
    hs, errors = [], []
    for level in TRANSPORT_LEVELS:
        nx, nv, nt = nx0 * level, nv0, nt0 * level
        f = solve(transport_datum, coef, TRANSPORT_BOX, nx=nx, nv=nv, nt=nt,
                  pad_x=1.0, pad_v=0.25, store_every=nt)
        X = f.xs[:, None]
        V = f.vs[None, :]
        exact = transport_datum(X - t_final * V, V)
        interior = np.abs(f.xs) <= 1.0
        diff = np.abs(f.values[-1] - exact)[interior, :]
        hs.append(1.0 / level)
        errors.append(float(diff.max()))
    order = fit_order(hs, errors)
    return {"hs": hs, "errors": errors, "order": float(order)}


# ------------------------------------------------------------------
# kernel suite


KERNEL_MASS_TIMES = (0.01, 1.0, 100.0)
KERNEL_RESIDUAL_STEPS = (0.02, 0.01)
SEMIGROUP_SPLIT = (1.0, 0.4)
SEMIGROUP_POINTS = ((0.0, 0.0), (0.5, -0.3), (-0.7, 0.9))


def run_kernel_suite() -> dict:
    """Normalization, PDE residual with convergence ratio and a
    detuned negative control, semigroup defect, split-kernel mass, and
    a small representation-bound instance."""
    mass_errors = {t: abs(kernel_mass(t) - 1.0) for t in KERNEL_MASS_TIMES}
    h1, h2 = KERNEL_RESIDUAL_STEPS
    res_h1 = kernel_pde_residual(h1)
    res_h2 = kernel_pde_residual(h2)
    res_detuned = kernel_pde_residual(h2, kernel=detuned_kernel)
    t_big, s_split = SEMIGROUP_SPLIT
    return {
        "mass_errors": mass_errors,
        "residual_coarse": res_h1,
        "residual_fine": res_h2,
        "residual_ratio": res_h1 / res_h2,
        "detuned_residual": res_detuned,
        "control_factor": res_detuned / res_h2,
        "semigroup_defect": semigroup_defect(t_big, s_split,
                                             SEMIGROUP_POINTS),
        "split_l1": {"eps": 0.5, "value": split_kernel_l1(0.5)},
        "representation": run_representation_instance(),
    }


def run_representation_instance() -> dict:
    """Duhamel convolution of a smooth space-time source evaluated on a
    small late-time grid, checked against the representation bound at
    p = 2 with the gradient-part data set to zero."""
    times_s = -0.4 + 0.05 * np.arange(8)
    xs_s = centered_axis(-1.5, 1.5, 32)
    vs_s = centered_axis(-1.5, 1.5, 32)
    T, X, V = np.meshgrid(times_s, xs_s, vs_s, indexing="ij")
    f2_vals = np.exp(-((T + 0.225) / 0.1) ** 2
                     - (X / 0.5) ** 2 - (V / 0.5) ** 2)
    F2 = GridFunction(times_s, xs_s, vs_s, f2_vals)
    F1 = GridFunction(times_s, xs_s, vs_s, np.zeros_like(f2_vals))

    times_e = 0.005 * (np.arange(5) - 4.0)
    xs_e = centered_axis(-0.5, 0.5, 12)
    vs_e = centered_axis(-0.5, 0.5, 12)
    Te, Xe, Ve = np.meshgrid(times_e, xs_e, vs_e, indexing="ij")
    vals = convolve_representation((times_s, xs_s, vs_s, f2_vals),
                                   (Te.ravel(), Xe.ravel(), Ve.ravel()))
    f = GridFunction(times_e, xs_e, vs_e, vals.reshape(Te.shape))
    report = check_kolm_lp_bound(F1, F2, 2.0, f)
    return {"report": report}
