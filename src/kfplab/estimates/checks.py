"""One checker per quantitative regularity statement.

Every checker measures the two sides of one inequality on gridded data
and returns an EstimateReport with the right hand side itemized.  The
"less than up to a constant" statements carry no numeric constant, so
pass verdicts compare the empirical ratio against a calibrated bound
(see kfplab.calibration), and each such checker reads its statement's
bound there; the intermediate-value, measure-to-pointwise and
oscillation-decay statements carry their constant in the inequality
itself and pass bound 1, and check_ivl builds its constants from its
fractions and the source sup.

Checkers validate the cheap structural hypotheses themselves (sign
conditions, sup bounds).  That the input is a weak sub/super-solution
is the caller's contract, verified separately through
kfplab.solver.weak.weak_residual.

Each statement the CLI can run is declared once in STATEMENTS: the
domains and defaults of its parameters and the cylinders it measures
on.  Its checker check_<name> takes exactly those parameters, none
with a default, and validates them and builds its cylinders in one
call on the declaration; the CLI validates configs against the same
declaration, and kfplab.experiments.run_member calls check_<name> by
name with the entry's parameters.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable

import numpy as np

from ..calibration import grid_tolerance, pass_bound
from ..geometry import Cylinder, as_point, make_cylinder
from ..reports import EstimateReport, build_report
from ..solver.grid import GridFunction, InsufficientResolutionError
from .constants import (
    DELTA0,
    ZETA,
    energy_constant,
    explicit_constants,
    gain_int_constant,
    gain_reg_constant,
    increase_constants,
)
from .norms import (
    GAGLIARDO_MIN_X_CELLS,
    _lp,
    band_fraction,
    cylinder_average,
    gagliardo_x_seminorm,
    grad_v_l1,
    inf_on,
    level_set_fraction,
    lp_norm,
    source_l2,
    source_sup,
    sup_on,
)

__all__ = [
    "check_energy_estimate",
    "check_gain_integrability",
    "check_sobolev_gain",
    "check_linfty_bound",
    "check_kolm_lp_bound",
    "check_weak_poincare",
    "check_ivl",
    "check_measure_to_pointwise",
    "check_weak_harnack",
    "check_harnack",
    "check_oscillation_decay",
    "ORIGIN",
    "HARNACK_R0",
    "Interval",
    "STATEMENTS",
    "pair_cylinders",
]

ORIGIN = as_point((0.0, 0.0, 0.0))
HARNACK_R0 = 1.0 / 20.0
OSCILLATION_R0 = 1.0 / 40.0
# lowering fraction of the measure-to-pointwise step in oscillation decay
OSCILLATION_DELTA = 0.5
Q1 = make_cylinder("centered", ORIGIN, 1.0)


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclasses.dataclass(frozen=True)
class Interval:
    """Domain of a numeric parameter: lo < value < hi (lo <= value when
    lo_closed), integral when integer; default None means required."""

    lo: float
    hi: float = math.inf
    lo_closed: bool = False
    integer: bool = False
    default: float = None

    def __str__(self):
        return f"{'[' if self.lo_closed else '('}{self.lo:g}, {self.hi:g})"

    def coerce(self, name, value):
        """value as a float (int if integer); ValueError naming name
        when it is missing, not a finite number, or outside."""
        if value is None:
            raise ValueError(f"{name} is required")
        kind = "an integer" if self.integer else "a finite number"
        if not _finite(value) or (self.integer and value != int(value)):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        above = self.lo <= value if self.lo_closed else self.lo < value
        if not (above and value < self.hi):
            raise ValueError(f"{name} must lie in {self}, got {value!r}")
        return int(value) if self.integer else float(value)


@dataclasses.dataclass(frozen=True)
class Centers:
    """Domain of a nonempty list of finite (t, x, v) points."""

    default: tuple = ((0.0, 0.0, 0.0),)

    def coerce(self, name, value):
        if not (isinstance(value, (list, tuple)) and value and all(
                isinstance(z, (list, tuple)) and len(z) == 3
                and all(_finite(c) for c in z) for z in value)):
            raise ValueError(f"{name} must be a nonempty list of "
                             f"[t, x, v], got {value!r}")
        return tuple(tuple(float(c) for c in z) for z in value)


@dataclasses.dataclass(frozen=True)
class Statement:
    """Parameter domains of one statement, the cylinders it measures on
    (defaults filled in), the fewest cells each of them must hold and
    the fewest x-cells each of their time slices holding a cell must
    hold (CylinderCells.x_columns)."""

    params: dict
    build: Callable
    min_cells: int = 1
    min_x_cells: int = 0

    def parameters(self, entry: dict) -> dict:
        """entry's parameters coerced into their domains, defaults filled
        in; ValueError names the first one that does not fit."""
        return {name: dom.coerce(name, entry.get(name, dom.default))
                for name, dom in self.params.items()}

    def cylinders(self, entry: dict = None) -> tuple:
        """The cylinders at parameters(entry), every default when entry
        is None; ValueError as parameters and build raise it."""
        return self.build(self.parameters(entry or {}))


def pair_cylinders(params) -> tuple:
    """Q_r inside Q_R, centered at the origin."""
    if not params["r"] < params["R"]:
        raise ValueError(f"r must be below R, got r={params['r']!r}, "
                         f"R={params['R']!r}")
    return (make_cylinder("centered", ORIGIN, params["r"]),
            make_cylinder("centered", ORIGIN, params["R"]))


def _oscillation_level(center, n) -> Cylinder:
    return make_cylinder("centered", center, OSCILLATION_R0 ** n)


_PAIR = {"r": Interval(0.0, default=0.5), "R": Interval(0.0, default=1.0)}
_GAIN_P = Interval(2.0, 3.0, lo_closed=True)  # [2, 2 + 1/d) at d = 1
_SIGMA = Interval(0.0, 1.0 / 3.0)

STATEMENTS = {
    "energy_estimate": Statement(_PAIR, pair_cylinders),
    "gain_integrability": Statement({**_PAIR, "p": _GAIN_P}, pair_cylinders),
    # the Gagliardo pair sum runs on Q_r; Q_R holds at least Q_r's
    # x-cells in every slice, so checking both rejects nothing more
    "sobolev_gain": Statement({**_PAIR, "sigma": _SIGMA}, pair_cylinders,
                              min_x_cells=GAGLIARDO_MIN_X_CELLS),
    "linfty_bound": Statement({**_PAIR, "zeta": Interval(0.0)},
                              pair_cylinders),
    # Q_1, the past cylinder Q_1(-2, 0, 0) and Q_5
    "weak_poincare": Statement(
        {"eps": Interval(0.0, 1.0),
         "sigma": dataclasses.replace(_SIGMA, default=0.25)},
        lambda p: (Q1, make_cylinder("past", ORIGIN, 1.0),
                   make_cylinder("centered", ORIGIN, 5.0))),
    # shifted past cylinder and the later Q_(r0/4)
    "harnack": Statement({}, lambda p: (
        make_cylinder("tilde_past", ORIGIN, HARNACK_R0, {"divisor": 4}),
        make_cylinder("centered", ORIGIN, 0.25 * HARNACK_R0))),
    # shifted past cylinder, the later Q_(r0/2), the early past cylinder
    "weak_harnack": Statement({"zeta": Interval(0.0, default=0.5)}, lambda p: (
        make_cylinder("tilde_past", ORIGIN, HARNACK_R0, {"divisor": 2}),
        make_cylinder("centered", ORIGIN, 0.5 * HARNACK_R0),
        make_cylinder("past", ORIGIN, HARNACK_R0))),
    # levels 0 and 1 at each center; an oscillation needs two cells
    "oscillation_decay": Statement(
        {"levels": Interval(1, lo_closed=True, integer=True, default=1),
         "centers": Centers()},
        lambda p: tuple(_oscillation_level(z, n) for z in p["centers"]
                        for n in (0, 1)),
        min_cells=2),
}


def _provenance(f: GridFunction, coef=None) -> dict:
    prov = {
        "grid": {"nt": int(f.times.size), "nx": int(f.whole_axes[0].size),
                 "nv": int(f.whole_axes[1].size), "dt": f.dt, "dx": f.dx,
                 "dv": f.dv},
        "scheme": f.meta.get("scheme"),
    }
    if coef is not None:
        prov["coefficients"] = coef.describe()
        prov["seed"] = coef.describe().get("seed", "")
    return prov


def _require_nonnegative(f: GridFunction, what: str):
    if f.extrema[0] < -grid_tolerance(f.dt, f.dx, f.dv):
        raise ValueError("negative values beyond the grid tolerance: "
                         f"not a nonnegative {what}")


def check_energy_estimate(f: GridFunction, coef, r: float,
                          R: float) -> EstimateReport:
    """Velocity-gradient energy on Q_r against mass and source on Q_R."""
    Qr, QR = STATEMENTS["energy_estimate"].cylinders({"r": r, "R": R})
    grad = f.cells(Qr).grad_v()
    lhs = float((grad ** 2).sum() * f.cell_measure)

    vals_R = f.cells(QR).values
    const = energy_constant(r, R, abs(QR.eff_center.v))
    sq = float((vals_R ** 2).sum() * f.cell_measure)
    svals = f.cells(QR).source(coef)
    cross = float((np.abs(vals_R) * np.abs(svals)).sum() * f.cell_measure)
    sid = "energy_estimate"
    return build_report(
        sid, lhs,
        {"mass": const * sq, "source_coupling": const * cross},
        pass_bound(sid),
        cylinders=(Qr, QR),
        extras={"geometric_constant": const},
        provenance=_provenance(f, coef))


def check_gain_integrability(f: GridFunction, coef, r: float, R: float,
                             p: float) -> EstimateReport:
    """L^p norm on Q_r against L^2 data on Q_R, p below the critical 3."""
    Qr, QR = STATEMENTS["gain_integrability"].cylinders(
        {"r": r, "R": R, "p": p})
    const = gain_int_constant(r, R, abs(QR.eff_center.v))
    prefactor = const / (3.0 - p)
    lhs = lp_norm(f, Qr, p)
    sid = f"gain_integrability[p={p:g}]"
    return build_report(
        sid, lhs,
        {"f_l2": prefactor * lp_norm(f, QR, 2.0),
         "source_l2": prefactor * source_l2(coef, f, QR)},
        pass_bound(sid),
        cylinders=(Qr, QR),
        extras={"p": p, "prefactor": prefactor},
        provenance=_provenance(f, coef))


def check_sobolev_gain(f: GridFunction, coef, r: float, R: float,
                       sigma: float) -> EstimateReport:
    """Fractional x-regularity on Q_r against L^2 data on Q_R."""
    Qr, QR = STATEMENTS["sobolev_gain"].cylinders(
        {"r": r, "R": R, "sigma": sigma})
    const = gain_reg_constant(r, R, abs(QR.eff_center.v))
    prefactor = const / (1.0 / 3.0 - sigma)
    semi = gagliardo_x_seminorm(f, Qr, sigma)
    l1 = lp_norm(f, Qr, 1.0)
    lhs = semi + l1
    sid = f"sobolev_gain[sigma={sigma:g}]"
    return build_report(
        sid, lhs,
        {"f_l2": prefactor * lp_norm(f, QR, 2.0),
         "source_l2": prefactor * source_l2(coef, f, QR)},
        pass_bound(sid),
        cylinders=(Qr, QR),
        extras={"sigma": sigma, "seminorm": semi, "l1": l1,
                "prefactor": prefactor},
        provenance=_provenance(f, coef))


def check_linfty_bound(f: GridFunction, coef, r: float, R: float,
                       zeta: float) -> EstimateReport:
    """Sup bound on Q_r from a small-exponent quasi-norm on Q_R."""
    Qr, QR = STATEMENTS["linfty_bound"].cylinders(
        {"r": r, "R": R, "zeta": zeta})
    v0 = abs(QR.eff_center.v)
    factor = ((1.0 + v0) / (r * r * (R - r) ** 3)) ** (5.0 / zeta)
    lhs = max(sup_on(f, Qr), 0.0)
    sid = f"linfty_bound[zeta={zeta:g}]"
    return build_report(
        sid, lhs,
        {"f_lzeta": factor * lp_norm(f, QR, zeta),
         "source_sup": factor * source_sup(coef, QR)},
        pass_bound(sid),
        cylinders=(Qr, QR),
        extras={"zeta": zeta, "factor": factor},
        provenance=_provenance(f, coef))


def check_kolm_lp_bound(F1: GridFunction, F2: GridFunction, p: float,
                        f: GridFunction) -> EstimateReport:
    """Integrability of a kernel representation against its L^2 data.

    f is expected to be the convolution representation built from the
    velocity divergence of F1 plus F2; the report measures how far its
    L^p norm sits below the critical-exponent barrier constant times
    the L^2 norms of the data.
    """
    _GAIN_P.coerce("p", p)
    prefactor = 1.0 / (3.0 - p)
    lhs = _lp(f, f.values, p)
    sid = f"kolmogorov_representation[p={p:g}]"
    return build_report(
        sid, lhs,
        {"gradient_data_l2": prefactor * _lp(F1, F1.values, 2.0),
         "source_data_l2": prefactor * _lp(F2, F2.values, 2.0)},
        pass_bound(sid),
        extras={"p": p, "prefactor": prefactor},
        provenance=_provenance(f))


def check_weak_poincare(f: GridFunction, coef, eps: float,
                        sigma: float) -> EstimateReport:
    """Positive-part Poincare inequality with a small L^2 error term.

    Cylinders are fixed at the origin: the excess of f over its average
    on the past cylinder Q_1(-2,0,0), measured in L^1 on Q_1, against
    the velocity-gradient, L^2, and source terms on Q_5.
    """
    q1, q1_past, q5 = STATEMENTS["weak_poincare"].cylinders(
        {"eps": eps, "sigma": sigma})
    avg = cylinder_average(f, q1_past)
    vals1 = f.cells(q1).values
    lhs = float(np.clip(vals1 - avg, 0.0, None).sum() * f.cell_measure)
    sid = "weak_poincare"
    return build_report(
        sid, lhs,
        {"grad_v_l1": eps ** -3 * grad_v_l1(f, q5),
         "f_l2": eps ** sigma / (1.0 / 3.0 - sigma) * lp_norm(f, q5, 2.0),
         "source_l2": source_l2(coef, f, q5)},
        pass_bound(sid),
        cylinders=(q1, q1_past, q5),
        extras={"eps": eps, "sigma": sigma, "past_average": avg},
        provenance=_provenance(f, coef))


def check_ivl(f: GridFunction, coef, delta1: float, delta2: float, *,
              time_gap: bool = True) -> EstimateReport:
    """Intermediate-value occupation on the half cylinder.

    Hypotheses: f at most 1 on the half cylinder, value at most 0 on a
    delta1 fraction of the early cylinder, and at least 1 - theta on a
    delta2 fraction of the late cylinder.  Conclusion: the intermediate
    band (0, 1 - theta) fills at least a nu fraction of the half
    cylinder.  time_gap=False replaces the early cylinder by one
    adjacent to the late cylinder (removing the mandatory gap), the
    variant the traveling-indicator counterexample defeats.
    """
    consts = explicit_constants(delta1, delta2, coef.source_sup)
    rho = consts.r0
    late = make_cylinder("centered", ORIGIN, rho)
    if time_gap:
        early = make_cylinder("past", ORIGIN, rho)
    else:
        early = make_cylinder("centered", (-rho * rho, 0.0, 0.0), rho)
    half = make_cylinder("centered", ORIGIN, 0.5)

    tol = grid_tolerance(f.dt, f.dx, f.dv)
    theta = consts.theta
    sup_half = sup_on(f, half)
    frac_cold = level_set_fraction(f, early, "le", 0.0)
    frac_hot = level_set_fraction(f, late, "ge", 1.0 - theta)
    bounded = sup_half <= 1.0 + tol
    hyp = bounded and frac_cold >= delta1 and frac_hot >= delta2
    frac_mid = band_fraction(f, half, 0.0, 1.0 - theta)
    return build_report(
        "intermediate_value", consts.nu,
        {"intermediate_fraction": frac_mid},
        1.0,
        cylinders=(early, late, half),
        hypotheses_met=hyp,
        extras={
            "delta1": delta1, "delta2": delta2,
            "fraction_cold": frac_cold, "fraction_hot": frac_hot,
            "fraction_intermediate": frac_mid,
            "sup_half_cylinder": sup_half,
            "theta": theta, "theta_precise": consts.precise["theta"],
            "nu": consts.nu, "nu_precise": consts.precise["nu"],
            "r0": consts.r0, "time_gap": bool(time_gap),
            "scale_factor": 1.0, "grid_tolerance": tol,
        },
        provenance=_provenance(f, coef))


def check_measure_to_pointwise(f: GridFunction, coef,
                               delta: float) -> EstimateReport:
    """Cold measure on the early cylinder lowers the sup on Q_(r0/2).

    The lemma needs the source sup at most mu, and mu is far below
    float resolution, so in practice only source-free data qualifies.
    The float assertion sup <= 1 - mu + tolerance is likewise
    indistinguishable from sup <= 1 + tolerance; the high-precision mu
    is recorded for the report.
    """
    consts = increase_constants(delta, source_free=coef.source_sup == 0.0)
    if coef.source_sup > consts.mu:
        raise ValueError(
            "the source sup exceeds mu, the lemma does not apply")
    r0 = consts.r0
    early = make_cylinder("past", ORIGIN, r0)
    half = make_cylinder("centered", ORIGIN, 0.5)
    goal = make_cylinder("centered", ORIGIN, 0.5 * r0)
    tol = grid_tolerance(f.dt, f.dx, f.dv)
    sup_half = sup_on(f, half)
    frac_cold = level_set_fraction(f, early, "le", 0.0)
    hyp = sup_half <= 1.0 + tol and frac_cold >= delta
    lhs = max(sup_on(f, goal), 0.0)
    return build_report(
        "measure_to_pointwise", lhs,
        {"lowered_bound": 1.0 - consts.mu + tol},
        1.0,
        cylinders=(early, half, goal),
        hypotheses_met=hyp,
        extras={
            "delta": delta, "r0": r0,
            "mu": consts.mu, "mu_precise": consts.precise["mu"],
            "fraction_cold": frac_cold, "sup_half_cylinder": sup_half,
            "grid_tolerance": tol,
            "note": "1 - mu rounds to 1 in double precision; the "
                    "binding float content is sup <= 1 + tolerance",
        },
        provenance=_provenance(f, coef))


_LOG_DIAG_EXPONENT = 1.0 / (10 * 1 + 18)


def check_weak_harnack(f: GridFunction, coef,
                       zeta: float) -> EstimateReport:
    """Quasi-norm on the shifted past cylinder against the later infimum.

    The left side is the un-normalized integral of f^zeta over the
    tilde past cylinder of radius r0/2, to the power 1/zeta; the right
    side is the infimum over the centered cylinder of radius r0/2 plus
    the source sup on Q_1.  Its declared default zeta is a fixed
    moderate value so the ratio is informative; the statement-traceable
    zeta traced from the constants' DELTA0 is recorded alongside.
    """
    tilde, lower, early = STATEMENTS["weak_harnack"].cylinders({"zeta": zeta})
    _require_nonnegative(f, "super-solution")
    vals = np.clip(f.cells(tilde).values, 0.0, None)
    lhs = float((vals ** zeta).sum() * f.cell_measure) ** (1.0 / zeta)
    log_vals = np.log1p(np.clip(f.cells(early).values, 0.0, None))
    log_diag = float((log_vals ** _LOG_DIAG_EXPONENT).sum() * f.cell_measure)
    sid = f"weak_harnack[zeta={zeta:g}]"
    return build_report(
        sid, lhs,
        {"infimum": max(inf_on(f, lower), 0.0),
         "source_sup": source_sup(coef, Q1)},
        pass_bound(sid),
        cylinders=(tilde, lower),
        extras={"zeta_measure": zeta,
                "zeta_statement": ZETA, "delta0": DELTA0, "r0": HARNACK_R0,
                "log_integral_diagnostic": log_diag},
        provenance=_provenance(f, coef))


def check_harnack(f: GridFunction, coef) -> EstimateReport:
    """Sup on the shifted past cylinder against the later infimum."""
    upper, lower = STATEMENTS["harnack"].cylinders({})
    _require_nonnegative(f, "solution")
    lhs = max(sup_on(f, upper), 0.0)
    sid = "harnack"
    return build_report(
        sid, lhs,
        {"infimum": max(inf_on(f, lower), 0.0),
         "source_sup": source_sup(coef, Q1)},
        pass_bound(sid),
        cylinders=(upper, lower),
        extras={"r0": HARNACK_R0},
        provenance=_provenance(f, coef))


def check_oscillation_decay(f: GridFunction, coef, levels: int,
                            centers) -> EstimateReport:
    """Oscillation contraction across the dyadic-in-scaling family.

    For each center z0 the oscillation of f over Q_(r0^n)(z0) is
    measured for n = 0..levels with r0 = 1/40.  The statement's
    contraction factor 1 - mu/2 rounds to 1 in double precision, and
    cells of the smaller cylinder are a subset of the larger one's, so
    the asserted inequality holds structurally; the informative output
    is the fitted decay exponent alpha_hat, reported alongside the
    statement's alpha.  Levels whose cylinder resolves into too few
    cells are truncated and noted.
    """
    statement = STATEMENTS["oscillation_decay"]
    # validates levels and centers; the loop rebuilds the declared
    # levels 0 and 1 along with the deeper ones
    statement.cylinders({"levels": levels, "centers": centers})
    source_free = coef.source_sup == 0.0
    consts = increase_constants(OSCILLATION_DELTA, source_free=source_free)
    tol = grid_tolerance(f.dt, f.dx, f.dv)

    per_center = []
    ratios = []
    alpha_hats = []
    truncated = False
    for z0 in centers:
        z0 = as_point(z0)
        radii, oscs = [], []
        for n in range(levels + 1):
            cyl = _oscillation_level(z0, n)
            cells = f.cells(cyl, minimum=0)
            if cells.count < statement.min_cells:
                # the first contraction must resolve; deeper levels may not
                if n <= 1:
                    raise InsufficientResolutionError(
                        f"oscillation cylinder at level {n} holds "
                        f"{cells.count} cells")
                truncated = True
                break
            osc = cells.max() - cells.min()
            if n >= 2 and osc < tol:
                truncated = True
                break
            radii.append(cyl.radius)
            oscs.append(osc)
        ratios.append((oscs[1], oscs[0]))
        if all(o > 0 for o in oscs):
            slope = np.polyfit(np.log(radii), np.log(oscs), 1)[0]
            alpha_hats.append(float(slope))
        per_center.append({
            "center": z0.to_json(),
            "radii": radii, "oscillations": oscs,
        })

    worst = max(ratios, key=lambda ab: ab[0] / ab[1] if ab[1] > 0 else math.inf)
    lhs, rhs_osc = worst
    contraction = 1.0 - consts.mu / 2.0  # rounds to 1.0 in floats
    return build_report(
        "oscillation_decay", lhs,
        {"contracted_oscillation": contraction * rhs_osc},
        1.0,
        extras={
            "alpha_hat": min(alpha_hats) if alpha_hats else None,
            "alpha_hats": alpha_hats,
            "alpha_statement": consts.alpha,
            "alpha_statement_precise": consts.precise["alpha"],
            "mu_precise": consts.precise["mu"],
            "contraction_factor": contraction,
            "source_sup": coef.source_sup,
            "source_branch": "exp(2*(1 + 2**26)) * source_sup",
            "r0": OSCILLATION_R0, "levels": levels,
            "truncated": truncated,
            "per_center": per_center,
            "note": "1 - mu/2 rounds to 1 in double precision and the "
                    "source branch of the bound overflows floats, so it "
                    "is dropped (strictly harder test) and the asserted "
                    "inequality is implied by cell-set inclusion; the "
                    "informative output is alpha_hat",
        },
        provenance=_provenance(f, coef))
