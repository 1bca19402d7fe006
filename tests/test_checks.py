"""Estimate checkers: report semantics on constructed fields.

Whether real solver output satisfies the estimates is the ensemble's
business; here each checker is fed hand-built grid functions whose
verdicts are known, plus the structural rejections.
"""

import inspect
import json
import math
import re

import numpy as np
import pytest

from kfplab import experiments
from kfplab.calibration import load_calibration, pass_bound as calibrated_bound
from kfplab.estimates import checks
from kfplab.estimates.checks import (
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
from kfplab.estimates.constants import explicit_constants
from kfplab.estimates.checks import HARNACK_R0, STATEMENTS
from kfplab.reports import build_report
from kfplab.solver.coefficients import (
    constant_coefficients,
    make_rough_coefficients,
)
from kfplab.solver.grid import (
    InsufficientResolutionError,
    centered_axis,
    sample_function,
    velocity_gradient,
)

COEF0 = constant_coefficients(1.0, 0.0, 0.0)


def _grid(fn, nt, t_len, nx, x_half, nv, v_half):
    dt = t_len / nt
    times = dt * (np.arange(nt) + 1.0 - nt)
    xs = centered_axis(-x_half, x_half, nx)
    vs = centered_axis(-v_half, v_half, nv)
    return sample_function(fn, times, xs, vs, 0.0, 0.0, {})


def _full_mask(f, cyl):
    """Membership of every cell center of f, by brute force."""
    T, X, V = np.meshgrid(f.times, f.xs, f.vs, indexing="ij")
    return cyl.contains(T, X, V)


def _mid_grid(fn):
    """Covers Q_1 with odd x and v axes (origin is a cell center)."""
    return _grid(fn, 64, 1.1, 129, 1.1, 129, 1.1)


def _harnack_grid(fn):
    """Resolves the r0 = 1/20 cylinders including their x windows."""
    return _grid(fn, 256, 0.008, 151, 1.5e-4, 61, 0.06)


def _ivl_grid(fn):
    """Covers the half cylinder while resolving the r0 = 1/20 windows."""
    return _grid(fn, 208, 0.26, 129, 0.13, 81, 0.52)


CENTERS = ((0.0, 0.0, 0.0),)


# -------------------------------------------------- L2-to-better family


def test_energy_constant_field_passes():
    f = _mid_grid(lambda t, x, v: 3.0 + 0.0 * t)
    rep = check_energy_estimate(f, COEF0, 0.5, 1.0)
    assert rep.lhs == 0.0
    assert rep.empirical_constant == 0.0
    assert rep.passed is True
    assert set(rep.rhs_terms) == {"mass", "source_coupling"}
    assert rep.rhs_terms["source_coupling"] == 0.0


def test_energy_rejects_unnested():
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    with pytest.raises(ValueError, match="r must be below R"):
        check_energy_estimate(f, COEF0, 1.0, 1.0)
    with pytest.raises(ValueError, match="r must be below R"):
        check_energy_estimate(f, COEF0, 1.0, 0.5)


def test_energy_gradient_oracle():
    # f = v^2 / 2: grad_v f = v, LHS = int v^2 over Q_(1/2)
    f = _mid_grid(lambda t, x, v: 0.5 * v**2 + 0.0 * t)
    rep = check_energy_estimate(f, COEF0, 0.5, 1.0)
    r = 0.5
    exact = r**2 * 2.0 * r**3 * (2.0 * r**3 / 3.0)
    # the short time window quantizes to ~15 slices: coarse agreement
    assert rep.lhs == pytest.approx(exact, rel=0.10)


def test_energy_lhs_equals_full_grid_gradient_bitwise():
    config = dict(experiments.STANDARD_CONFIG, checks=[],
                  grid={"nt": 32, "nx": 64, "nv": 48})
    member = experiments.run_member(config, 3)
    f, coef = member["solution"], member["coefficients"]
    params = STATEMENTS["energy_estimate"].parameters({})
    qr, _ = STATEMENTS["energy_estimate"].cylinders(params)
    mask = _full_mask(f, qr)
    full = velocity_gradient(f.values, f.dv)[mask]
    rep = check_energy_estimate(f, coef, **params)
    assert rep.lhs == float((full ** 2).sum() * f.cell_measure)


def test_gain_integrability_validates_p():
    # admissible range at d = 1 is [2, 3)
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    for p in (1.9, 3.0, 3.2):
        with pytest.raises(ValueError, match="p must"):
            check_gain_integrability(f, COEF0, 0.5, 1.0, p)


def test_gain_integrability_constant_field():
    f = _mid_grid(lambda t, x, v: 2.0 + 0.0 * t)
    rep = check_gain_integrability(f, COEF0, 0.5, 1.0, 2.25)
    # ||f||_p on the smaller cylinder vs a large prefactor times L2 norms;
    # p = 2.25 is not calibrated, so the report has no bound and no verdict
    assert 0.0 < rep.empirical_constant < 1.0
    assert rep.pass_bound is None
    assert rep.passed is None
    # (1 + 1/(R - r)) times the energy constant 17, over 3 - p
    assert rep.extras["prefactor"] == pytest.approx(3.0 * 17.0 / 0.75)
    assert rep.statement_id == "gain_integrability[p=2.25]"


def test_sobolev_gain_validates_sigma():
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    for sigma in (0.0, 1.0 / 3.0, 0.4):
        with pytest.raises(ValueError, match="sigma"):
            check_sobolev_gain(f, COEF0, 0.5, 1.0, sigma)


def test_sobolev_gain_itemizes_pieces():
    f = _mid_grid(lambda t, x, v: np.sin(2 * x) + 0.0 * t)
    rep = check_sobolev_gain(f, COEF0, 0.5, 1.0, 0.25)
    assert rep.lhs == pytest.approx(rep.extras["seminorm"] + rep.extras["l1"],
                                    rel=1e-12)
    assert rep.extras["seminorm"] > 0.0
    assert rep.statement_id == "sobolev_gain[sigma=0.25]"


def test_linfty_bound_validates_zeta():
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    with pytest.raises(ValueError, match="zeta"):
        check_linfty_bound(f, COEF0, 0.5, 1.0, 0.0)


def test_linfty_bound_negative_field_clamps():
    # sup of a negative subsolution clamps to zero: bound trivially holds
    f = _mid_grid(lambda t, x, v: -1.0 + 0.0 * t)
    rep = check_linfty_bound(f, COEF0, 0.5, 1.0, 0.5)
    assert rep.lhs == 0.0
    assert rep.passed is True


def test_kolm_lp_bound_validates_p():
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    with pytest.raises(ValueError, match="p must"):
        check_kolm_lp_bound(f, f, 3.0, f)


def test_kolm_lp_bound_reports():
    f1 = _mid_grid(lambda t, x, v: 1.0 + 0.0 * t)
    f2 = _mid_grid(lambda t, x, v: 0.5 + 0.0 * t)
    rep = check_kolm_lp_bound(f1, f2, 2.25, f2)
    assert set(rep.rhs_terms) == {"gradient_data_l2", "source_data_l2"}
    # p = 2.25 is not calibrated: no bound, no verdict
    assert 0.0 < rep.empirical_constant < 1.0
    assert rep.pass_bound is None
    assert rep.passed is None


# -------------------------------------------------------- weak Poincare


def _poincare_grid(fn):
    return _grid(fn, 104, 26.0, 129, 126.0, 41, 5.2)


def test_weak_poincare_constant_is_tight_zero():
    f = _poincare_grid(lambda t, x, v: 2.0 + 0.0 * t)
    rep = check_weak_poincare(f, COEF0, 0.1, 0.25)
    assert rep.lhs == 0.0
    assert rep.extras["past_average"] == pytest.approx(2.0)
    assert rep.statement_id == "weak_poincare"


def test_weak_poincare_validates_args():
    f = _poincare_grid(lambda t, x, v: 0.0 * t)
    with pytest.raises(ValueError, match="eps"):
        check_weak_poincare(f, COEF0, 0.0, 0.25)
    with pytest.raises(ValueError, match="eps"):
        check_weak_poincare(f, COEF0, 1.0, 0.25)
    with pytest.raises(ValueError, match="sigma"):
        check_weak_poincare(f, COEF0, 0.1, sigma=0.5)


def test_weak_poincare_excess_measured():
    # mean on the past cylinder is 0; positive part appears where v > 0
    f = _poincare_grid(lambda t, x, v: np.tanh(4.0 * v) + 0.0 * t)
    rep = check_weak_poincare(f, COEF0, 0.2, 0.25)
    assert rep.lhs > 0.0
    assert rep.rhs_terms["grad_v_l1"] > 0.0


# ---------------------------------------------------- intermediate value


def test_ivl_ramp_passes():
    rho = 0.05
    f = _ivl_grid(lambda t, x, v:
                  np.clip((t + 2 * rho**2) / rho**2, 0.0, 1.0) + 0.0 * v)
    rep = check_ivl(f, COEF0, 0.5, 0.5)
    assert rep.hypotheses_met is True
    assert rep.extras["fraction_cold"] == 1.0
    assert rep.extras["fraction_hot"] == 1.0
    assert rep.rhs_terms["intermediate_fraction"] > 0.0
    assert rep.passed is True
    assert rep.statement_id == "intermediate_value"


def test_ivl_jump_defeats_occupation():
    # discontinuous-in-time switch: both hypotheses hold yet nothing
    # occupies the intermediate band
    f = _ivl_grid(lambda t, x, v: 1.0 * (t > -0.0043) + 0.0 * v)
    rep = check_ivl(f, COEF0, 0.5, 0.5)
    assert rep.hypotheses_met is True
    assert rep.rhs_terms["intermediate_fraction"] == 0.0
    assert rep.rhs_zero is True
    assert rep.passed is False  # nu > 0 demanded, 0 measured


def test_ivl_gap_removed_variant():
    f = _ivl_grid(lambda t, x, v: 1.0 * (t > -0.003) + 0.0 * v)
    rep = check_ivl(f, COEF0, 0.5, 0.5, time_gap=False)
    assert rep.extras["time_gap"] is False
    assert rep.hypotheses_met is True
    assert rep.passed is False


def test_ivl_constant_misses_hypotheses():
    f = _ivl_grid(lambda t, x, v: 0.8 + 0.0 * t)
    rep = check_ivl(f, COEF0, 0.5, 0.5)
    assert rep.hypotheses_met is False
    assert rep.passed is None
    assert rep.extras["fraction_cold"] == 0.0


def test_ivl_lhs_is_nu():
    f = _ivl_grid(lambda t, x, v: 0.5 + 0.0 * t)
    rep = check_ivl(f, COEF0, 0.3, 0.4)
    consts = explicit_constants(0.3, 0.4, 0.0)
    assert rep.lhs == consts.nu
    assert rep.extras["nu_precise"] == consts.precise["nu"]


# ----------------------------------------------- measure to pointwise


def test_m2p_zero_field_passes():
    f = _ivl_grid(lambda t, x, v: 0.0 * t)
    rep = check_measure_to_pointwise(f, COEF0, 0.5)
    assert rep.hypotheses_met is True
    assert rep.lhs == 0.0
    assert rep.passed is True
    assert "rounds to 1" in rep.extras["note"]


def test_m2p_constant_misses_hypotheses():
    f = _ivl_grid(lambda t, x, v: 0.5 + 0.0 * t)
    rep = check_measure_to_pointwise(f, COEF0, 0.5)
    assert rep.hypotheses_met is False
    assert rep.passed is None


def test_m2p_rejects_source():
    f = _ivl_grid(lambda t, x, v: 0.0 * t)
    coef = constant_coefficients(1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="mu"):
        check_measure_to_pointwise(f, coef, 0.5)


# --------------------------------------------------------- Harnack pair


def test_harnack_constant_ratio_exactly_one():
    f = _harnack_grid(lambda t, x, v: 3.0 + 0.0 * t)
    rep = check_harnack(f, COEF0)
    assert rep.lhs == 3.0
    assert rep.rhs == 3.0
    assert rep.empirical_constant == 1.0


def test_harnack_rejects_negative():
    f = _harnack_grid(lambda t, x, v: -1.0 + 0.0 * t)
    with pytest.raises(ValueError, match="nonnegative"):
        check_harnack(f, COEF0)
    with pytest.raises(ValueError, match="nonnegative"):
        check_weak_harnack(f, COEF0, 0.5)


@pytest.mark.parametrize("lhs, rhs_terms, bound, hypotheses, passed", [
    (1.0, {"a": 1.0}, 2.0, False, None),   # hypotheses unmet
    (0.0, {"a": 0.0}, 2.0, True, True),    # RHS = 0 and LHS = 0
    (1.0, {"a": 0.0}, 2.0, True, False),   # RHS = 0 and LHS > 0
    (1.0, {"a": 1.0}, None, True, None),   # no bound
    (3.0, {"a": 1.0, "b": 1.0}, 2.0, True, True),
    (5.0, {"a": 1.0, "b": 1.0}, 2.0, True, False),
], ids=["hypotheses-unmet", "rhs-zero-pass", "rhs-zero-fail", "no-bound",
        "pass", "fail"])
def test_build_report_verdict_branches(lhs, rhs_terms, bound, hypotheses,
                                       passed):
    rep = build_report("s", lhs, rhs_terms, bound,
                       hypotheses_met=hypotheses)
    assert rep.passed is passed
    assert rep.rhs == sum(rhs_terms.values())
    assert rep.rhs_zero is (rep.rhs == 0.0)
    assert rep.empirical_constant == (None if rep.rhs_zero
                                      else lhs / rep.rhs)
    assert rep.pass_bound == bound


def test_harnack_default_bound_resolution():
    f = _harnack_grid(lambda t, x, v: 3.0 + 0.0 * t)
    rep = check_harnack(f, COEF0)
    bound = calibrated_bound("harnack")
    if bound is None:
        assert rep.passed is None
    else:
        assert rep.passed is (rep.empirical_constant <= bound)


def test_weak_harnack_constant_quadrature():
    # f = e - 1 makes the log diagnostic the discrete cylinder volume
    c = math.e - 1.0
    f = _harnack_grid(lambda t, x, v: c + 0.0 * t)
    rep = check_weak_harnack(f, COEF0, zeta=1.0)
    r0 = HARNACK_R0
    vol_early = r0**6 * 4.0
    vol_tilde = (r0 / 2.0) ** 6 * 4.0
    assert rep.extras["log_integral_diagnostic"] == pytest.approx(
        vol_early, rel=0.02)
    assert rep.lhs == pytest.approx(c * vol_tilde, rel=0.08)
    assert rep.rhs_terms["infimum"] == pytest.approx(c)
    assert rep.statement_id == "weak_harnack[zeta=1]"
    assert rep.extras["zeta_statement"] == pytest.approx(0.01**27, rel=1e-12)


def test_weak_harnack_validates_zeta():
    f = _harnack_grid(lambda t, x, v: 1.0 + 0.0 * t)
    with pytest.raises(ValueError, match="zeta"):
        check_weak_harnack(f, COEF0, zeta=-0.5)


def test_harnack_source_term_included():
    f = _harnack_grid(lambda t, x, v: 1.0 + 0.0 * t)
    coef = constant_coefficients(1.0, 0.0, 0.25)
    rep = check_harnack(f, coef)
    assert rep.rhs_terms["source_sup"] == pytest.approx(0.25)


# ---------------------------------------------------- oscillation decay


def test_oscillation_constant_passes_rhs_zero():
    f = _mid_grid(lambda t, x, v: 4.0 + 0.0 * t)
    rep = check_oscillation_decay(f, COEF0, 1, CENTERS)
    assert rep.rhs_zero is True
    assert rep.passed is True
    assert rep.extras["alpha_hat"] is None


def test_oscillation_linear_in_v():
    f = _mid_grid(lambda t, x, v: v + 0.0 * t)
    rep = check_oscillation_decay(f, COEF0, 1, CENTERS)
    assert rep.passed is True
    # Lipschitz in v: fitted decay exponent near 1 (v window quantized)
    assert 0.8 < rep.extras["alpha_hat"] < 1.3
    assert rep.extras["contraction_factor"] == 1.0
    assert len(rep.extras["per_center"]) == 1


def test_oscillation_validates_levels():
    f = _mid_grid(lambda t, x, v: 0.0 * t)
    with pytest.raises(ValueError, match="levels"):
        check_oscillation_decay(f, COEF0, 0, CENTERS)


def test_oscillation_unaligned_center_unresolved():
    f = _grid(lambda t, x, v: v + 0.0 * t, 64, 1.1, 129, 1.3, 129, 1.3)
    # x0 sits mid-gap between columns: the level-1 x window is empty
    x0 = float(f.xs[64]) + 0.004
    with pytest.raises(InsufficientResolutionError):
        check_oscillation_decay(f, COEF0, 1, ((0.0, x0, 0.0),))


def test_oscillation_drifting_center():
    f = _grid(lambda t, x, v: np.sin(x) + 0.3 * v + 0.0 * t,
              64, 1.1, 129, 1.3, 129, 1.3)
    x0 = float(f.xs[64])
    v0 = float(f.vs[70])
    t0 = float(f.times[-1])
    rep = check_oscillation_decay(f, COEF0, 1, ((t0, x0, v0),
                                                (t0, x0, 0.0)))
    assert rep.passed is True
    assert len(rep.extras["per_center"]) == 2
    assert len(rep.extras["alpha_hats"]) == 2


# ------------------------------------------------------------ reporting


def test_reports_serialize_strict_json():
    f = _mid_grid(lambda t, x, v: v + 0.0 * t)
    reps = [
        check_energy_estimate(f, COEF0, 0.5, 1.0),
        check_oscillation_decay(f, COEF0, 1, CENTERS),
    ]
    g = _ivl_grid(lambda t, x, v: 0.5 + 0.0 * t)
    reps.append(check_ivl(g, COEF0, 0.5, 0.5))
    for rep in reps:
        text = json.dumps(rep.to_json_dict(), allow_nan=False, sort_keys=True)
        back = json.loads(text)
        assert back["statement_id"] == rep.statement_id
        row = rep.summary_row()
        assert set(row) >= {"statement_id", "lhs", "rhs", "passed"}


def test_provenance_carries_coefficients():
    coef = make_rough_coefficients(9, s_amp=0.0, cell_size=0.04)
    f = _mid_grid(lambda t, x, v: 1.0 + 0.0 * t)
    rep = check_energy_estimate(f, coef, 0.5, 1.0)
    assert rep.provenance["coefficients"]["seed"] == 9
    assert rep.provenance["grid"]["nx"] == 129


# ----------------------------------------------- declared statements


# (statement, parameters beyond the defaults, grid resolving its cylinders)
_DECLARED_RUNS = [
    ("energy_estimate", {}, _mid_grid),
    ("gain_integrability", {"p": 2.25}, _mid_grid),
    ("sobolev_gain", {"sigma": 0.25}, _mid_grid),
    ("linfty_bound", {"zeta": 0.5}, _mid_grid),
    ("weak_poincare", {"eps": 0.1}, _poincare_grid),
    ("harnack", {}, _harnack_grid),
    ("weak_harnack", {}, _harnack_grid),
    ("oscillation_decay", {}, _mid_grid),
]


def _checker(name):
    """The checker run_member calls for the statement name."""
    return getattr(experiments, f"check_{name}")


def test_every_declared_statement_has_a_cli_call():
    assert all(callable(_checker(name)) for name in STATEMENTS)
    assert sorted(name for name, _, _ in _DECLARED_RUNS) == sorted(STATEMENTS)


def test_checkers_take_exactly_their_declared_parameters():
    for name, statement in STATEMENTS.items():
        params = inspect.signature(_checker(name)).parameters
        declared = [p for p in params if p not in ("f", "coef")]
        assert declared == list(statement.params), name
        assert all(params[p].default is inspect.Parameter.empty
                   for p in declared), name


@pytest.mark.parametrize("name, params, grid", _DECLARED_RUNS,
                         ids=[name for name, _, _ in _DECLARED_RUNS])
def test_checker_measures_on_declared_cylinders(name, params, grid):
    statement = STATEMENTS[name]
    params = statement.parameters(params)
    f = grid(lambda t, x, v: 2.0 + 0.0 * t)
    report = _checker(name)(f, COEF0, **params)
    declared = [cyl.describe() for cyl in statement.cylinders(params)]
    assert all(cyl in declared for cyl in report.cylinders)


def _run_declared(name, params):
    """The checker's report on a constant field, at its declared run's
    parameters updated by params."""
    base, grid = {n: (p, g) for n, p, g in _DECLARED_RUNS}[name]
    params = STATEMENTS[name].parameters({**base, **params})
    return _checker(name)(grid(lambda t, x, v: 2.0 + 0.0 * t), COEF0,
                          **params)


def test_pass_bound_keys_parse_to_declared_statements():
    # a key is `name` or `name[param=value]`, value as the checkers
    # format it with :g
    keyed = set()
    for key, bound in load_calibration()["pass_bounds"].items():
        match = re.fullmatch(r"(\w+)(?:\[(\w+)=([^\]]+)\])?", key)
        assert match, key
        name, param, value = match.groups()
        params = {} if param is None else {param: float(value)}
        if param is not None:
            assert key == f"{name}[{param}={params[param]:g}]"
        if name == "kolmogorov_representation":
            # the kernel suite's check_kolm_lp_bound, p in [2, 3)
            assert list(params) == ["p"], key
            checks._GAIN_P.coerce("p", params["p"])
            continue
        assert name in STATEMENTS, key
        assert set(params) <= set(STATEMENTS[name].params), key
        for param, value in params.items():
            STATEMENTS[name].params[param].coerce(param, value)
        # run at the key's parameters, the checker reports the key and
        # its bound
        report = _run_declared(name, params)
        assert report.statement_id == key
        assert report.pass_bound == bound
        keyed.add(name)
    # a checker reads the calibration when its report carries the
    # calibrated bound of its statement id, None for an id without one
    analytic = {name for name, _, _ in _DECLARED_RUNS
                if (rep := _run_declared(name, {})).pass_bound
                != calibrated_bound(rep.statement_id)}
    assert set(STATEMENTS) - analytic <= keyed
    # the one analytic bound: the oscillation contraction, pass bound 1
    assert analytic == {"oscillation_decay"}
    assert _run_declared("oscillation_decay", {}).pass_bound == 1.0
