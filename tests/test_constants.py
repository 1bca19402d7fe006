"""Explicit constants: regression pins, ranges, and monotonicity.

The quantitative chain bottoms out in numbers with astronomically small
decimal exponents (mu needs a 79-digit exponent at delta1 = delta2 =
1/2), so the regression pins are exact decimal strings produced by the
arbitrary-precision path, and the printed digits are checked against
evaluations at twice the precision they need.
"""

import dataclasses
import decimal
import math
import time

import mpmath as mp
import numpy as np
import pytest

from kfplab.estimates.constants import (
    PRECISE_DIGITS,
    ZETA,
    ExplicitConstants,
    energy_constant,
    explicit_constants,
    gain_int_constant,
    gain_reg_constant,
    increase_constants,
)

# 12-significant-digit pins at delta1 = delta2 = 1/2, s = 0 (d = 1,
# sigma = 1/4, C = 10), frozen once from a dps=140 evaluation and
# confirmed identical at dps=260
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
_PRECISE_FIELDS = ("r0", "epsilon", "theta", "nu", "mu", "alpha")


def _precise_value(consts, name):
    """One derived constant parsed back to an mpf."""
    with mp.workdps(60):
        return mp.mpf(consts.precise[name])


def _describe(consts):
    out = dataclasses.asdict(consts)
    out["precise"] = dict(consts.precise)
    return out


def _exponent_digits(consts):
    """Digits of mu's decimal exponent, read from its precise string."""
    return len(consts.precise["mu"].partition("e-")[2])


def _direct_strings(delta1, delta2, dps):
    """The source-free chain evaluated directly at dps, each value
    printed by mp.nstr to PRECISE_DIGITS digits."""
    with mp.workdps(dps):
        d1, d2, c = mp.mpf(delta1), mp.mpf(delta2), mp.mpf(10)
        r0 = mp.mpf(1) / 20
        epsilon = (d1 * d2 / (8 * c)) ** 4
        theta = (d1 * d2) ** 2 / (8 * (d2 + c / (r0 ** 5 * epsilon ** 3))) ** 2
        nu = 16 * ((d1 * d2 / (4 * c)) * epsilon ** 3 * r0 ** 5) ** 2
        mu = mp.exp((1 + 1 / nu) * mp.log(theta)) / 2
        alpha = mp.log1p(-mu / 2) / mp.log(r0)
        return tuple(mp.nstr(x, PRECISE_DIGITS)
                     for x in (r0, epsilon, theta, nu, mu, alpha))


def test_pinned_regression_tuple():
    consts = explicit_constants(0.5, 0.5, 0.0)
    assert consts.as_tuple_str(12) == PINNED_DEFAULT


def test_float_fields_at_defaults():
    consts = explicit_constants(0.5, 0.5, 0.0)
    assert consts.r0 == 0.05
    assert consts.epsilon == pytest.approx((0.25 / 80.0) ** 4, rel=1e-13)
    assert consts.theta == pytest.approx(7.17464813734e-79, rel=1e-11)
    assert consts.nu == pytest.approx(4.5917748079e-77, rel=1e-10)
    # mu and alpha underflow to zero as floats by an enormous margin
    assert consts.mu == 0.0
    assert consts.alpha == 0.0
    assert ZETA == pytest.approx(0.01**27, rel=1e-12)


def test_epsilon_closed_form():
    # eps = (delta1 delta2 / (8 C))^(1/sigma) with C = 10, 1/sigma = 4
    consts = explicit_constants(0.3, 0.7, 0.0)
    assert consts.epsilon == pytest.approx((0.3 * 0.7 / 80.0) ** 4, rel=1e-12)


def test_theta_nu_at_offcenter_inputs():
    consts = explicit_constants(0.3, 0.3, 0.0)
    assert consts.theta == pytest.approx(2.087688154252258842e-90, rel=1e-12)
    assert consts.nu == pytest.approx(1.3361204187214456589e-88, rel=1e-12)


def test_r0_source_free_is_one_twentieth():
    assert explicit_constants(0.5, 0.5, 0.0).r0 == 0.05
    assert increase_constants(0.37, True).r0 == 0.05


def test_r0_with_source():
    s = 3.0
    consts = explicit_constants(0.5, 0.5, s)
    assert consts.r0 == pytest.approx(math.sqrt(0.5 / (400.0 * (1.0 + s))),
                                      rel=1e-14)
    assert consts.r0 < 0.05


def test_r0_formula_never_exceeds_cap():
    # sqrt(delta1 / 400) < 1/20 for every delta1 < 1, so any nonzero
    # source selects the formula branch
    consts = explicit_constants(0.99, 0.5, 1e-6)
    assert consts.r0 == pytest.approx(
        math.sqrt(0.99 / (400.0 * (1.0 + 1e-6))), rel=1e-14)
    assert consts.r0 < 0.05


def test_increase_variant_r0():
    consts = increase_constants(0.5, False)
    assert consts.r0 == pytest.approx(math.sqrt(0.5 / 800.0), rel=1e-14)
    assert consts.variant == "increase"
    assert consts.delta2 == 0.5  # universal second fraction


def test_increase_mu_pin():
    consts = increase_constants(0.5, True)
    mu_str = consts.as_tuple_str(12)[4]
    assert mu_str == (
        "1.28455464867e-17149416658851055575797251443877321379730386894329"
        "43303183341663235148048603821")


def test_monotone_in_fractions():
    # theta and nu grow with either occupation fraction
    values = [explicit_constants(d, 0.5, 0.0) for d in
              (0.1, 0.3, 0.5, 0.7, 0.9)]
    thetas = [_precise_value(v, "theta") for v in values]
    nus = [_precise_value(v, "nu") for v in values]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    assert all(a < b for a, b in zip(nus, nus[1:]))

    values = [explicit_constants(0.5, d, 0.0) for d in (0.1, 0.4, 0.8)]
    thetas = [_precise_value(v, "theta") for v in values]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_monotone_in_source():
    values = [explicit_constants(0.5, 0.5, s) for s in (0.0, 0.5, 2.0, 8.0)]
    thetas = [_precise_value(v, "theta") for v in values]
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_mu_monotone_in_delta():
    values = [increase_constants(d, True) for d in (0.2, 0.5, 0.8)]
    mus = [_precise_value(v, "mu") for v in values]
    assert all(a < b for a, b in zip(mus, mus[1:]))


def test_ranges_random_inputs():
    rng = np.random.default_rng(42)
    for _ in range(120):
        consts = explicit_constants(
            float(rng.uniform(0.02, 0.98)),
            float(rng.uniform(0.02, 0.98)),
            float(rng.uniform(0.0, 5.0)),
        )
        assert 0.0 < consts.r0 <= 0.05
        assert 0.0 < consts.epsilon < 1.0
        one = mp.mpf(1)
        assert 0 < _precise_value(consts, "theta") < one
        assert _precise_value(consts, "nu") > 0
        assert 0 < _precise_value(consts, "mu") < one
        assert _precise_value(consts, "alpha") > 0


@pytest.mark.parametrize("kwargs", [
    {"delta1": 0.0},
    {"delta1": 1.0},
    {"delta2": -0.2},
    {"delta2": 0.0},
    {"delta2": 1.0},
    {"delta1": math.nan},
    {"s_inf": -1.0},
    {"s_inf": math.nan},
    {"s_inf": math.inf},
    {"delta1": -0.5},
])
def test_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        explicit_constants(**{"delta1": 0.5, "delta2": 0.5, "s_inf": 0.0,
                              **kwargs})


@pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 0.05, 0.02, 1e-3])
def test_precise_strings_match_doubled_precision(delta):
    # mp.nstr prints mu directly here; its exponent has 79 to 220 digits
    consts = explicit_constants(delta, delta, 0.0)
    dps = 2 * (_exponent_digits(consts) + PRECISE_DIGITS)
    assert tuple(consts.precise[k] for k in _PRECISE_FIELDS) == \
        _direct_strings(delta, delta, dps)


@pytest.mark.parametrize("delta", [1e-300, 5e-324])
def test_tiny_fractions_print_the_right_digits(delta):
    # mu's exponent has about 16 000 digits, past the 4 300 digits
    # str() converts; compare in log space against 50 more digits
    start = time.perf_counter()
    consts = explicit_constants(delta, delta, 0.0)
    assert time.perf_counter() - start < 10.0
    digits = _exponent_digits(consts)
    assert digits > 4300
    with mp.workdps(digits + PRECISE_DIGITS + 50):
        d = mp.mpf(delta)
        r0 = mp.mpf(1) / 20
        epsilon = (d * d / 80) ** 4
        theta = (d * d) ** 2 / (8 * (d + 10 / (r0 ** 5 * epsilon ** 3))) ** 2
        nu = 16 * ((d * d / 40) * epsilon ** 3 * r0 ** 5) ** 2
        log10_mu = ((1 + 1 / nu) * mp.log(theta) - mp.ln2) / mp.ln10
        log10_alpha = log10_mu - mp.log(2 * mp.log(1 / r0)) / mp.ln10
        expected = {}
        for name, log10_value in (("mu", log10_mu), ("alpha", log10_alpha)):
            exponent = int(mp.floor(log10_value))
            expected[name] = (exponent, log10_value - exponent)
    with mp.workdps(PRECISE_DIGITS + 50):
        for name, (exponent, fraction) in expected.items():
            mantissa, _, text = consts.precise[name].partition("e")
            assert int(decimal.Decimal(text)) == exponent, name
            assert mantissa == mp.nstr(mp.exp(fraction * mp.ln10),
                                       PRECISE_DIGITS), name


def test_describe_keys():
    desc = _describe(explicit_constants(0.5, 0.5, 0.0))
    for key in ("variant", "r0", "epsilon", "theta", "nu", "mu", "alpha",
                "precise"):
        assert key in desc


def test_frozen_dataclass():
    consts = explicit_constants(0.5, 0.5, 0.0)
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
