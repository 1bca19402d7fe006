"""One checker per quantitative regularity statement.

Every checker measures the two sides of one inequality on gridded data
and returns an EstimateReport with the right hand side itemized.  The
"less than up to a constant" statements carry no numeric constant, so
pass verdicts compare the empirical ratio against a calibrated bound
(see kfplab.calibration); checkers with an intrinsic constant (the
intermediate-value and measure-to-pointwise statements) use bound 1.

Checkers validate the cheap structural hypotheses themselves (cylinder
nesting, sign conditions, sup bounds).  That the input is a weak
sub/super-solution is the caller's contract, verified separately
through kfplab.solver.weak_residual.
"""

from __future__ import annotations

import math

import numpy as np

from ..calibration import grid_tolerance, pass_bound as _calibrated
from ..geometry import Cylinder, as_point, make_cylinder
from ..reports import EstimateReport, build_report
from ..solver.grid import GridFunction
from .constants import (
    ExplicitConstants,
    energy_constant,
    explicit_constants,
    gain_int_constant,
    gain_reg_constant,
    increase_constants,
)
from .norms import (
    InsufficientResolutionError,
    _masked_values,
    band_fraction,
    cylinder_average,
    gagliardo_x_seminorm,
    grad_v_l1,
    grid_lp_norm,
    inf_on,
    level_set_fraction,
    lp_norm,
    source_l2,
    source_sup,
    sup_on,
    velocity_gradient,
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
]

ORIGIN = as_point((0.0, 0.0, 0.0))


def _provenance(f: GridFunction, coef=None) -> dict:
    prov = {
        "grid": {"nt": int(f.times.size), "nx": int(f.xs.size),
                 "nv": int(f.vs.size), "dt": f.dt, "dx": f.dx, "dv": f.dv},
        "scheme": f.meta.get("scheme"),
    }
    if coef is not None:
        prov["coefficients"] = coef.describe()
        prov["seed"] = coef.describe().get("seed", "")
    return prov


def _require_nested(Qr: Cylinder, QR: Cylinder):
    a, b = Qr.eff_center, QR.eff_center
    same = (abs(a.t - b.t) < 1e-12
            and np.allclose(a.x, b.x, atol=1e-12)
            and np.allclose(a.v, b.v, atol=1e-12))
    if not same or not Qr.eff_radius < QR.eff_radius:
        raise ValueError("cylinders must be nested around a common center")


def _bound(statement_id: str, override):
    return _calibrated(statement_id) if override is None else override


def _masked_source(coef, f: GridFunction, mask) -> np.ndarray:
    T, X, V = np.meshgrid(f.times, f.xs, f.vs, indexing="ij", copy=False)
    return np.asarray(coef.source(T[mask], X[mask], V[mask]), float)


def check_energy_estimate(f: GridFunction, coef, Qr: Cylinder, QR: Cylinder,
                          *, pass_bound=None) -> EstimateReport:
    """Velocity-gradient energy on Qr against mass and source on QR."""
    _require_nested(Qr, QR)
    _, mask_r = _masked_values(f, Qr)
    # the gradient runs along v only, so on the t/x window holding Qr's
    # cells (full v axis) it lists the same entries in the same order
    it, ix = np.nonzero(mask_r.any(axis=2))
    window = np.s_[it.min():it.max() + 1, ix.min():ix.max() + 1]
    grad = velocity_gradient(f.values[window], f.dv)
    lhs = float((grad[mask_r[window]] ** 2).sum() * f.cell_measure)

    vals_R, mask_R = _masked_values(f, QR)
    const = energy_constant(Qr.eff_radius, QR.eff_radius,
                            float(np.linalg.norm(QR.eff_center.v)))
    sq = float((vals_R ** 2).sum() * f.cell_measure)
    svals = _masked_source(coef, f, mask_R)
    cross = float((np.abs(vals_R) * np.abs(svals)).sum() * f.cell_measure)
    sid = "energy_estimate"
    return build_report(
        sid, lhs,
        {"mass": const * sq, "source_coupling": const * cross},
        _bound(sid, pass_bound),
        cylinders=(Qr, QR),
        extras={"geometric_constant": const},
        provenance=_provenance(f, coef))


def check_gain_integrability(f: GridFunction, coef, Qr: Cylinder,
                             QR: Cylinder, p: float, *,
                             pass_bound=None) -> EstimateReport:
    """L^p norm on Qr against L^2 data on QR, p below the critical 2 + 1/d."""
    d = 1
    if not 2.0 <= p < 2.0 + 1.0 / d:
        raise ValueError(f"p must lie in [2, {2 + 1.0 / d}), got {p}")
    _require_nested(Qr, QR)
    f.require_cylinder(QR)
    const = gain_int_constant(Qr.eff_radius, QR.eff_radius,
                              float(np.linalg.norm(QR.eff_center.v)))
    prefactor = const / (2.0 + 1.0 / d - p)
    lhs = lp_norm(f, Qr, p)
    sid = f"gain_integrability[p={p:g}]"
    return build_report(
        sid, lhs,
        {"f_l2": prefactor * lp_norm(f, QR, 2.0),
         "source_l2": prefactor * source_l2(coef, f, QR)},
        _bound(sid, pass_bound),
        cylinders=(Qr, QR),
        extras={"p": p, "prefactor": prefactor},
        provenance=_provenance(f, coef))


def check_sobolev_gain(f: GridFunction, coef, Qr: Cylinder, QR: Cylinder,
                       sigma: float, *, pass_bound=None) -> EstimateReport:
    """Fractional x-regularity on Qr against L^2 data on QR."""
    if not 0.0 < sigma < 1.0 / 3.0:
        raise ValueError("sigma must lie in (0, 1/3)")
    _require_nested(Qr, QR)
    f.require_cylinder(QR)
    d = 1
    const = gain_reg_constant(Qr.eff_radius, QR.eff_radius,
                              float(np.linalg.norm(QR.eff_center.v)), d)
    prefactor = const / (1.0 / 3.0 - sigma)
    semi = gagliardo_x_seminorm(f, Qr, sigma)
    l1 = lp_norm(f, Qr, 1.0)
    lhs = semi + l1
    sid = f"sobolev_gain[sigma={sigma:g}]"
    return build_report(
        sid, lhs,
        {"f_l2": prefactor * lp_norm(f, QR, 2.0),
         "source_l2": prefactor * source_l2(coef, f, QR)},
        _bound(sid, pass_bound),
        cylinders=(Qr, QR),
        extras={"sigma": sigma, "seminorm": semi, "l1": l1,
                "prefactor": prefactor},
        provenance=_provenance(f, coef))


def check_linfty_bound(f: GridFunction, coef, Qr: Cylinder, QR: Cylinder,
                       zeta: float, *, pass_bound=None) -> EstimateReport:
    """Sup bound on Qr from a small-exponent quasi-norm on QR."""
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    _require_nested(Qr, QR)
    f.require_cylinder(QR)
    d = 1
    r, R = Qr.eff_radius, QR.eff_radius
    v0 = float(np.linalg.norm(QR.eff_center.v))
    factor = ((1.0 + v0) / (r * r * (R - r) ** 3)) ** ((1.0 + 4 * d) / zeta)
    lhs = max(sup_on(f, Qr), 0.0)
    sid = f"linfty_bound[zeta={zeta:g}]"
    return build_report(
        sid, lhs,
        {"f_lzeta": factor * lp_norm(f, QR, zeta),
         "source_sup": factor * source_sup(coef, QR)},
        _bound(sid, pass_bound),
        cylinders=(Qr, QR),
        extras={"zeta": zeta, "factor": factor},
        provenance=_provenance(f, coef))


def check_kolm_lp_bound(F1: GridFunction, F2: GridFunction, p: float,
                        f: GridFunction, *, pass_bound=None) -> EstimateReport:
    """Integrability of a kernel representation against its L^2 data.

    f is expected to be the convolution representation built from the
    velocity divergence of F1 plus F2; the report measures how far its
    L^p norm sits below the critical-exponent barrier constant times
    the L^2 norms of the data.
    """
    d = 1
    if not 2.0 <= p < 2.0 + 1.0 / d:
        raise ValueError(f"p must lie in [2, {2 + 1.0 / d}), got {p}")
    prefactor = 1.0 / (2.0 + 1.0 / d - p)
    lhs = grid_lp_norm(f, p)
    sid = f"kolmogorov_representation[p={p:g}]"
    return build_report(
        sid, lhs,
        {"gradient_data_l2": prefactor * grid_lp_norm(F1, 2.0),
         "source_data_l2": prefactor * grid_lp_norm(F2, 2.0)},
        _bound(sid, pass_bound),
        extras={"p": p, "prefactor": prefactor},
        provenance=_provenance(f))


def check_weak_poincare(f: GridFunction, coef, eps: float,
                        sigma: float = 0.25, *,
                        pass_bound=None) -> EstimateReport:
    """Positive-part Poincare inequality with a small L^2 error term.

    Cylinders are fixed at the origin: the excess of f over its average
    on the past cylinder Q_1(-2,0,0), measured in L^1 on Q_1, against
    the velocity-gradient, L^2, and source terms on Q_5.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < sigma < 1.0 / 3.0:
        raise ValueError("sigma must lie in (0, 1/3)")
    d = 1
    q1 = make_cylinder("centered", ORIGIN, 1.0)
    q1_past = make_cylinder("past", ORIGIN, 1.0)
    q5 = make_cylinder("centered", ORIGIN, 5.0)
    f.require_cylinder(q5)
    avg = cylinder_average(f, q1_past)
    vals1, _ = _masked_values(f, q1)
    lhs = float(np.clip(vals1 - avg, 0.0, None).sum() * f.cell_measure)
    sid = "weak_poincare"
    return build_report(
        sid, lhs,
        {"grad_v_l1": eps ** (-(d + 2)) * grad_v_l1(f, q5),
         "f_l2": eps ** sigma / (1.0 / 3.0 - sigma) * lp_norm(f, q5, 2.0),
         "source_l2": source_l2(coef, f, q5)},
        _bound(sid, pass_bound),
        cylinders=(q1, q1_past, q5),
        extras={"eps": eps, "sigma": sigma, "past_average": avg},
        provenance=_provenance(f, coef))


def check_ivl(f: GridFunction, coef, delta1: float, delta2: float,
              consts: ExplicitConstants = None, *, time_gap: bool = True,
              scale_factor: float = 1.0, pass_bound=1.0) -> EstimateReport:
    """Intermediate-value occupation on the half cylinder.

    Hypotheses: f at most 1 on the half cylinder, value at most 0 on a
    delta1 fraction of the early cylinder, and at least 1 - theta on a
    delta2 fraction of the late cylinder.  Conclusion: the intermediate
    band (0, 1 - theta) fills at least a nu fraction of the half
    cylinder.  time_gap=False replaces the early cylinder by one
    adjacent to the late cylinder (removing the mandatory gap), the
    variant the traveling-indicator counterexample defeats.  All
    fractions are dilation invariant, so scale_factor only selects the
    physical scale of the test geometry.
    """
    if consts is None:
        consts = explicit_constants(d=1, delta1=delta1, delta2=delta2,
                                    s_inf=coef.source_sup)
    sf = float(scale_factor)
    if sf <= 0:
        raise ValueError("scale_factor must be positive")
    rho = consts.r0 * sf
    late = make_cylinder("centered", ORIGIN, rho)
    if time_gap:
        early = make_cylinder("past", ORIGIN, rho)
    else:
        early = make_cylinder("centered", (-rho * rho, 0.0, 0.0), rho)
    half = make_cylinder("centered", ORIGIN, 0.5 * sf)

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
        pass_bound,
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
            "scale_factor": sf, "grid_tolerance": tol,
        },
        provenance=_provenance(f, coef))


def check_measure_to_pointwise(f: GridFunction, coef, delta: float,
                               consts: ExplicitConstants = None, *,
                               pass_bound=1.0) -> EstimateReport:
    """Cold measure on the early cylinder lowers the sup on Q_(r0/2).

    The lemma needs the source sup at most mu, and mu is far below
    float resolution, so in practice only source-free data qualifies.
    The float assertion sup <= 1 - mu + tolerance is likewise
    indistinguishable from sup <= 1 + tolerance; the high-precision mu
    is recorded for the report.
    """
    source_free = coef.source_sup == 0.0
    if consts is None:
        consts = increase_constants(delta, source_free=source_free)
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
        pass_bound,
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


def check_weak_harnack(f: GridFunction, coef, zeta: float = 0.5, *,
                       delta0: float = 0.01,
                       pass_bound=None) -> EstimateReport:
    """Quasi-norm on the shifted past cylinder against the later infimum.

    The left side is the un-normalized integral of f^zeta over the
    tilde past cylinder of radius r0/2, to the power 1/zeta; the right
    side is the infimum over the centered cylinder of radius r0/2 plus
    the source sup on Q_1.  zeta defaults to a fixed moderate value so
    the ratio is informative; the statement-traceable zeta derived from
    delta0 is recorded alongside.
    """
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    r0 = 1.0 / 20.0
    tol = grid_tolerance(f.dt, f.dx, f.dv)
    if float(f.values.min()) < -tol:
        raise ValueError("negative values beyond the grid tolerance: "
                         "not a nonnegative super-solution")
    tilde = make_cylinder("tilde_past", ORIGIN, r0, {"divisor": 2})
    lower = make_cylinder("centered", ORIGIN, 0.5 * r0)
    early = make_cylinder("past", ORIGIN, r0)
    tilde_vals, _ = _masked_values(f, tilde)
    vals = np.clip(tilde_vals, 0.0, None)
    lhs = float((vals ** zeta).sum() * f.cell_measure) ** (1.0 / zeta)
    q1 = make_cylinder("centered", ORIGIN, 1.0)
    d = 1
    early_vals, _ = _masked_values(f, early)
    log_vals = np.log1p(np.clip(early_vals, 0.0, None))
    log_diag = float((log_vals ** _LOG_DIAG_EXPONENT).sum() * f.cell_measure)
    sid = f"weak_harnack[zeta={zeta:g}]"
    return build_report(
        sid, lhs,
        {"infimum": max(inf_on(f, lower), 0.0),
         "source_sup": source_sup(coef, q1)},
        _bound(sid, pass_bound),
        cylinders=(tilde, lower),
        extras={"zeta_measure": zeta,
                "zeta_statement": delta0 ** (10 * d + 17),
                "delta0": delta0, "r0": r0,
                "log_integral_diagnostic": log_diag},
        provenance=_provenance(f, coef))


def check_harnack(f: GridFunction, coef, *, pass_bound=None) -> EstimateReport:
    """Sup on the shifted past cylinder against the later infimum."""
    r0 = 1.0 / 20.0
    tol = grid_tolerance(f.dt, f.dx, f.dv)
    if float(f.values.min()) < -tol:
        raise ValueError("negative values beyond the grid tolerance: "
                         "not a nonnegative solution")
    upper = make_cylinder("tilde_past", ORIGIN, r0, {"divisor": 4})
    lower = make_cylinder("centered", ORIGIN, 0.25 * r0)
    q1 = make_cylinder("centered", ORIGIN, 1.0)
    lhs = max(sup_on(f, upper), 0.0)
    sid = "harnack"
    return build_report(
        sid, lhs,
        {"infimum": max(inf_on(f, lower), 0.0),
         "source_sup": source_sup(coef, q1)},
        _bound(sid, pass_bound),
        cylinders=(upper, lower),
        extras={"r0": r0},
        provenance=_provenance(f, coef))


def check_oscillation_decay(f: GridFunction, coef, levels: int = 1, *,
                            centers=(ORIGIN,), delta: float = 0.5,
                            pass_bound=1.0) -> EstimateReport:
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
    if levels < 1:
        raise ValueError("levels must be at least 1")
    r0 = 1.0 / 40.0
    source_free = coef.source_sup == 0.0
    consts = increase_constants(delta, source_free=source_free)
    tol = grid_tolerance(f.dt, f.dx, f.dv)

    per_center = []
    ratios = []
    alpha_hats = []
    truncated = False
    for z0 in centers:
        z0 = as_point(z0)
        radii, oscs = [], []
        for n in range(levels + 1):
            rad = r0 ** n
            cyl = make_cylinder("centered", z0, rad)
            f.require_cylinder(cyl)
            mask = f.mask(cyl)
            if mask.sum() < 2:
                # the first contraction must resolve; deeper levels may not
                if n <= 1:
                    raise InsufficientResolutionError(
                        f"oscillation cylinder at level {n} holds "
                        f"{int(mask.sum())} cells")
                truncated = True
                break
            vals = f.values[mask]
            osc = float(vals.max() - vals.min())
            if n >= 2 and osc < tol:
                truncated = True
                break
            radii.append(rad)
            oscs.append(osc)
        ratios.append((oscs[1], oscs[0]))
        if all(o > 0 for o in oscs):
            slope = np.polyfit(np.log(radii), np.log(oscs), 1)[0]
            alpha_hats.append(float(slope))
        per_center.append({
            "center": [z0.t, z0.x.tolist(), z0.v.tolist()],
            "radii": radii, "oscillations": oscs,
        })

    worst = max(ratios, key=lambda ab: ab[0] / ab[1] if ab[1] > 0 else math.inf)
    lhs, rhs_osc = worst
    contraction = 1.0 - consts.mu / 2.0  # rounds to 1.0 in floats
    return build_report(
        "oscillation_decay", lhs,
        {"contracted_oscillation": contraction * rhs_osc},
        pass_bound,
        extras={
            "alpha_hat": min(alpha_hats) if alpha_hats else None,
            "alpha_hats": alpha_hats,
            "alpha_statement": consts.alpha,
            "alpha_statement_precise": consts.precise["alpha"],
            "mu_precise": consts.precise["mu"],
            "contraction_factor": contraction,
            "source_sup": coef.source_sup,
            "source_branch": "exp(2*(1 + 2**26)) * source_sup",
            "r0": r0, "levels": levels,
            "truncated": truncated,
            "per_center": per_center,
            "note": "1 - mu/2 rounds to 1 in double precision and the "
                    "source branch of the bound overflows floats, so it "
                    "is dropped (strictly harder test) and the asserted "
                    "inequality is implied by cell-set inclusion; the "
                    "informative output is alpha_hat",
        },
        provenance=_provenance(f, coef))
