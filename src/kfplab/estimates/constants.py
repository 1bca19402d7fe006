"""Explicit constants of the quantitative regularity statements.

Derivation chain in dimension d = 1, with C = C_UNIVERSAL = 10, the
regularity exponent sigma = SIGMA = 1/4 and the cylinder volume
|Q_(1/2)| = 4 (1/2)^6 = 1/16 entering the density constant:

    epsilon = (delta1 delta2 / (8 C))^(1/sigma)
    theta   = delta1^2 delta2^2
              [8 (delta2 + C (1+S) / (r0^5 epsilon^3))]^(-2)
    nu      = |Q_(1/2)|^(-1)
              ((delta1 delta2 / (4 C)) epsilon^3 r0^5)^2
    mu      = theta^(1 + 1/nu) / 2
    alpha   solves 1 - mu/2 = r0^alpha
    zeta    = delta0^27, with delta0 = DELTA0 = 0.01 (ZETA)

Two variants differ in r0 and in where the source bound enters:

  "ivl":      r0 = 1/20 when S = 0, otherwise
              min(1/20, sqrt(delta1 / (400 (1+S)))); the formulas use
              the actual source sup.
  "increase": the iteration of rescaled functions amplifies the source,
              so the formulas use a source bound of 1 regardless of S;
              r0 = 1/20 for source-free problems, sqrt(delta1/800)
              otherwise, with delta1 read as the lemma's delta and
              delta2 as the universal fraction delta'.

Always theta < 1e-62 and nu < 1e-61, so mu and alpha lie below
10^(-10^60) and read 0.0 as floats; mu's decimal exponent has 79 digits
at delta1 = delta2 = 1/2, 152 at 0.02 and about 26 log10(1/(delta1
delta2)) for small fractions.  `precise` keeps every derived value to
PRECISE_DIGITS significant digits: a low-precision pass counts the
digits of log10 mu's integer part, the chain is evaluated again with
that many digits plus PRECISE_DIGITS plus a guard, and mu and alpha are
printed from their log10, the mantissa from its fractional part.
"""

from __future__ import annotations

import dataclasses
import decimal
import math

import mpmath as mp

__all__ = [
    "C_UNIVERSAL",
    "DELTA0",
    "PRECISE_DIGITS",
    "SIGMA",
    "ZETA",
    "ExplicitConstants",
    "explicit_constants",
    "increase_constants",
    "energy_constant",
    "gain_int_constant",
    "gain_reg_constant",
]

SIGMA = 0.25
C_UNIVERSAL = 10.0
DELTA0 = 0.01
ZETA = DELTA0 ** 27
# significant digits of each string in ExplicitConstants.precise
PRECISE_DIGITS = 20
# digits carried beyond the printed ones, and the precision of the
# pass that sizes the working precision
_GUARD_DIGITS = 10
_SIZING_DPS = 15


def energy_constant(r: float, R: float, v0: float) -> float:
    """Geometric constant of the energy estimate between Q_r and Q_R."""
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    return float(1.0 + 1.0 / (R - r) ** 2 + (abs(v0) + R) / ((R - r) * r * r)
                 + 1.0 / ((R - r) * r))


def gain_int_constant(r: float, R: float, v0: float) -> float:
    """Constant in the integrability gain: (1 + 1/(R-r)) times energy."""
    return (1.0 + 1.0 / (R - r)) * energy_constant(r, R, v0)


def gain_reg_constant(r: float, R: float, v0: float) -> float:
    """Constant in the regularity gain: R^3 (1 + 1/(R-r)) energy."""
    return R ** 3 * (1.0 + 1.0 / (R - r)) * energy_constant(r, R, v0)


def _scientific(mantissa, exponent: int, digits: int) -> str:
    """mantissa * 10**exponent, mantissa in [1, 10), as mp.nstr prints
    it; decimal writes the exponent, since str() refuses integers over
    4 300 digits, which mu's exponent passes near delta = 1e-80."""
    text = mp.nstr(mantissa, digits)
    if mp.mpf(text) >= 10:
        text, exponent = "1.0", exponent + 1
    return f"{text}e{decimal.Decimal(exponent)}"


@dataclasses.dataclass(frozen=True)
class ExplicitConstants:
    """Inputs and derived constants; see the module docstring.

    mu and alpha read 0.0 as floats; `precise` keeps every derived
    value as a decimal string of PRECISE_DIGITS significant digits.
    """

    delta1: float
    delta2: float
    s_inf: float
    variant: str
    r0: float
    epsilon: float
    theta: float
    nu: float
    mu: float
    alpha: float
    precise: dict

    def as_tuple_str(self, digits: int = 12) -> tuple:
        """(r0, epsilon, theta, nu, mu, alpha) decimal strings, each
        rounded from its precise string."""
        with mp.workdps(60):
            out = [mp.nstr(mp.mpf(self.precise[k]), digits)
                   for k in ("r0", "epsilon", "theta", "nu")]
            for k in ("mu", "alpha"):
                mantissa, _, exponent = self.precise[k].partition("e")
                out.append(_scientific(mp.mpf(mantissa),
                                       int(decimal.Decimal(exponent)), digits))
        return tuple(out)


def _chain(delta1, delta2, s_inf, variant, source_free) -> dict:
    """r0, epsilon, theta, nu, log10 mu and log10 alpha at the current
    working precision."""
    d1 = mp.mpf(delta1)
    d2 = mp.mpf(delta2)
    s = mp.mpf(s_inf)
    c = mp.mpf(C_UNIVERSAL)
    twenty_inv = mp.mpf(1) / 20
    if source_free:
        r0 = twenty_inv
    elif variant == "ivl":
        r0 = min(twenty_inv, mp.sqrt(d1 / (400 * (1 + s))))
    else:
        r0 = mp.sqrt(d1 / 800)
    s_formula = s if variant == "ivl" else mp.mpf(1)

    epsilon = (d1 * d2 / (8 * c)) ** (1 / mp.mpf(SIGMA))
    eps_pow = epsilon ** 3
    r0_pow = r0 ** 5
    theta = (d1 * d2) ** 2 / (8 * (d2 + c * (1 + s_formula)
                                   / (r0_pow * eps_pow))) ** 2
    q_half = mp.mpf(1) / 16
    nu = ((d1 * d2 / (4 * c)) * eps_pow * r0_pow) ** 2 / q_half
    # natural logarithms over the cached ln 10; at thousands of digits
    # each fresh logarithm is the cost of a call
    log10_mu = ((1 + 1 / nu) * mp.log(theta) - mp.ln2) / mp.ln10
    # log(1 - mu/2) = -mu/2 up to a relative mu/4, far below the printed
    # digits, so alpha = mu / (2 log(1/r0))
    log10_alpha = log10_mu - mp.log(2 * mp.log(1 / r0)) / mp.ln10
    return {"r0": r0, "epsilon": epsilon, "theta": theta, "nu": nu,
            "mu": log10_mu, "alpha": log10_alpha}


def _constants(delta1, delta2, s_inf, variant,
               source_free) -> ExplicitConstants:
    if not (0.0 < delta1 < 1.0 and 0.0 < delta2 < 1.0):
        raise ValueError("delta1 and delta2 must lie in (0, 1)")
    if not 0.0 <= s_inf < math.inf:
        raise ValueError("the source sup is a finite nonnegative number")
    args = (delta1, delta2, s_inf, variant, source_free)
    with mp.workdps(_SIZING_DPS):
        exponent_digits = int(mp.log10(-_chain(*args)["mu"])) + 1
    with mp.workdps(exponent_digits + PRECISE_DIGITS + _GUARD_DIGITS):
        derived = _chain(*args)
        floats = {k: float(derived[k])
                  for k in ("r0", "epsilon", "theta", "nu")}
        exponents = {k: int(mp.floor(derived[k])) for k in ("mu", "alpha")}
        for k, exponent in exponents.items():
            derived[k] -= exponent
    # printed from roundings: mp.nstr turns all mantissa bits of a
    # moderate number into one decimal integer
    with mp.workdps(PRECISE_DIGITS + _GUARD_DIGITS):
        precise = {k: mp.nstr(+derived[k], PRECISE_DIGITS) for k in floats}
        for k, exponent in exponents.items():
            precise[k] = _scientific(mp.exp(derived[k] * mp.ln10), exponent,
                                     PRECISE_DIGITS)
    return ExplicitConstants(
        delta1=float(delta1), delta2=float(delta2), s_inf=float(s_inf),
        variant=variant, precise=precise, mu=0.0, alpha=0.0, **floats)


def explicit_constants(delta1: float, delta2: float,
                       s_inf: float) -> ExplicitConstants:
    """The intermediate-value constants; see the module docstring."""
    return _constants(delta1, delta2, s_inf, "ivl", s_inf == 0.0)


def increase_constants(delta: float, source_free: bool) -> ExplicitConstants:
    """Constants for the measure-to-pointwise lemma at lowering fraction
    delta, with the universal fraction delta' = 1/2."""
    return _constants(delta, 0.5, 0.0, "increase", source_free)
