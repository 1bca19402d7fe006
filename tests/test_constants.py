"""Explicit constants: regression pins, ranges, and monotonicity.

The quantitative chain bottoms out in numbers with astronomically small
decimal exponents (mu needs a 79-digit exponent at the default inputs),
so the regression pins are exact decimal strings produced by the
arbitrary-precision path and verified stable against a much higher
working precision.
"""

import math

import numpy as np
import pytest

from kfplab.estimates import (
    ExplicitConstants,
    energy_constant,
    explicit_constants,
    gain_int_constant,
    gain_reg_constant,
    increase_constants,
)

# 12-significant-digit pins at the default inputs
# (d=1, delta1=delta2=1/2, s=0, sigma=1/4, C=10), frozen once from the
# dps=140 evaluation and confirmed identical at dps=260
PINNED_DEFAULT = (
    "0.05",
    "9.53674316406e-11",
    "7.17464813734e-79",
    "4.5917748079e-77",
    "4.40242779679e-170182996035694691901972359440371892418755720140815055515"
    "9893471579226729338123",
    "7.34783250769e-170182996035694691901972359440371892418755720140815055515"
    "9893471579226729338124",
)


def test_pinned_regression_tuple():
    consts = explicit_constants()
    assert consts.as_tuple_str(12) == PINNED_DEFAULT


def test_float_fields_at_defaults():
    consts = explicit_constants()
    assert consts.r0 == 0.05
    assert consts.epsilon == pytest.approx((0.25 / 80.0) ** 4, rel=1e-13)
    assert consts.theta == pytest.approx(7.17464813734e-79, rel=1e-11)
    assert consts.nu == pytest.approx(4.5917748079e-77, rel=1e-10)
    # mu and alpha underflow to zero as floats by an enormous margin
    assert consts.mu == 0.0
    assert consts.alpha == 0.0
    assert consts.zeta == pytest.approx(0.01**27, rel=1e-12)


def test_epsilon_closed_form():
    # eps = (delta1 delta2 / (8 C))^(1/sigma) with 1/sigma = 4
    consts = explicit_constants(delta1=0.3, delta2=0.7, c_universal=5.0,
                                sigma=0.25)
    assert consts.epsilon == pytest.approx((0.3 * 0.7 / 40.0) ** 4, rel=1e-12)


def test_theta_nu_at_offcenter_inputs():
    consts = explicit_constants(delta1=0.3, delta2=0.3)
    assert consts.theta == pytest.approx(2.087688154252258842e-90, rel=1e-12)
    assert consts.nu == pytest.approx(1.3361204187214456589e-88, rel=1e-12)


def test_r0_source_free_is_one_twentieth():
    assert explicit_constants(s_inf=0.0).r0 == 0.05
    assert increase_constants(0.37, source_free=True).r0 == 0.05


def test_r0_with_source():
    s = 3.0
    consts = explicit_constants(delta1=0.5, s_inf=s)
    assert consts.r0 == pytest.approx(math.sqrt(0.5 / (400.0 * (1.0 + s))),
                                      rel=1e-14)
    assert consts.r0 < 0.05


def test_r0_formula_never_exceeds_cap():
    # sqrt(delta1 / 400) < 1/20 for every delta1 < 1, so any nonzero
    # source selects the formula branch
    consts = explicit_constants(delta1=0.99, s_inf=1e-6)
    assert consts.r0 == pytest.approx(
        math.sqrt(0.99 / (400.0 * (1.0 + 1e-6))), rel=1e-14)
    assert consts.r0 < 0.05


def test_increase_variant_r0():
    consts = increase_constants(0.5, source_free=False)
    assert consts.r0 == pytest.approx(math.sqrt(0.5 / 800.0), rel=1e-14)
    assert consts.variant == "increase"
    assert consts.delta2 == 0.5  # universal second fraction


def test_increase_mu_pin():
    consts = increase_constants(0.5, source_free=True)
    mu_str = consts.as_tuple_str(12)[4]
    assert mu_str == (
        "1.28455464867e-17149416658851055575797251443877321379730386894329"
        "43303183341663235148048603821")


def test_monotone_in_fractions():
    # theta and nu grow with either occupation fraction
    values = [explicit_constants(delta1=d, dps=60) for d in
              (0.1, 0.3, 0.5, 0.7, 0.9)]
    thetas = [v.precise_value("theta") for v in values]
    nus = [v.precise_value("nu") for v in values]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    assert all(a < b for a, b in zip(nus, nus[1:]))

    values = [explicit_constants(delta2=d, dps=60) for d in
              (0.1, 0.4, 0.8)]
    thetas = [v.precise_value("theta") for v in values]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_monotone_in_source():
    values = [explicit_constants(s_inf=s, dps=60) for s in
              (0.0, 0.5, 2.0, 8.0)]
    thetas = [v.precise_value("theta") for v in values]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_mu_monotone_in_delta():
    values = [increase_constants(d, dps=60) for d in (0.2, 0.5, 0.8)]
    mus = [v.precise_value("mu") for v in values]
    assert all(a < b for a, b in zip(mus, mus[1:]))


def test_ranges_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(120):
        consts = explicit_constants(
            delta1=float(rng.uniform(0.02, 0.98)),
            delta2=float(rng.uniform(0.02, 0.98)),
            s_inf=float(rng.uniform(0.0, 5.0)),
            sigma=float(rng.uniform(0.02, 0.32)),
            c_universal=float(rng.uniform(1.0, 100.0)),
            delta0=float(rng.uniform(0.005, 0.5)),
            dps=40,
        )
        assert 0.0 < consts.r0 <= 0.05
        assert 0.0 < consts.epsilon < 1.0
        one = consts.precise_value("theta") ** 0  # mpf 1 in context
        assert 0 < consts.precise_value("theta") < one
        assert consts.precise_value("nu") > 0
        assert 0 < consts.precise_value("mu") < one
        assert consts.precise_value("alpha") > 0
        assert 0.0 < consts.zeta < 1.0


@pytest.mark.parametrize("kwargs", [
    {"delta1": 0.0},
    {"delta1": 1.0},
    {"delta2": -0.2},
    {"sigma": 0.0},
    {"sigma": 1.0 / 3.0},
    {"c_universal": 0.5},
    {"s_inf": -1.0},
    {"delta0": 0.0},
    {"delta0": 1.0},
    {"variant": "other"},
])
def test_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        explicit_constants(**kwargs)


def test_tuple_stable_across_precision():
    lo = explicit_constants(dps=140)
    hi = explicit_constants(dps=220)
    assert lo.as_tuple_str(12) == hi.as_tuple_str(12)


def test_describe_keys():
    desc = explicit_constants(dps=60).describe()
    for key in ("variant", "r0", "epsilon", "theta", "nu", "mu", "alpha",
                "zeta", "precise"):
        assert key in desc


def test_frozen_dataclass():
    consts = explicit_constants(dps=60)
    assert isinstance(consts, ExplicitConstants)
    with pytest.raises(AttributeError):
        consts.r0 = 1.0


# ------------------------------------------------- geometric prefactors


def test_energy_constant_oracle():
    # hand value at (r, R, v0) = (1/2, 1, 0):
    # 1 + 1/(1/2)^2 + 1/((1/2)(1/2)^2) + 1/((1/2)(1/2)) = 17
    assert energy_constant(0.5, 1.0, 0.0) == 17.0


def test_energy_constant_grows_with_speed():
    assert energy_constant(0.5, 1.0, 3.0) > energy_constant(0.5, 1.0, 0.0)


def test_energy_constant_blows_up_as_radii_merge():
    assert energy_constant(0.9, 1.0, 0.0) > energy_constant(0.5, 1.0, 0.0)


def test_energy_constant_rejects_bad_radii():
    for r, R in ((0.0, 1.0), (1.0, 1.0), (1.2, 1.0), (-0.1, 1.0)):
        with pytest.raises(ValueError):
            energy_constant(r, R, 0.0)


def test_prefactor_relations():
    r, R, v0 = 0.4, 0.9, 1.3
    base = energy_constant(r, R, v0)
    assert gain_int_constant(r, R, v0) == pytest.approx(
        (1.0 + 1.0 / (R - r)) * base, rel=1e-14)
    assert gain_reg_constant(r, R, v0) == pytest.approx(
        R**3 * (1.0 + 1.0 / (R - r)) * base, rel=1e-14)
