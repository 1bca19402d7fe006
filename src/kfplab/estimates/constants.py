"""Explicit constants of the quantitative regularity statements.

Derivation chain in dimension d = 1, with C a universal constant and
the cylinder volume |Q_(1/2)| = 4 (1/2)^6 = 1/16 entering the density
constant:

    epsilon = (delta1 delta2 / (8 C))^(1/sigma)
    theta   = delta1^2 delta2^2
              [8 (delta2 + C (1+S) / (r0^5 epsilon^3))]^(-2)
    nu      = |Q_(1/2)|^(-1)
              ((delta1 delta2 / (4 C)) epsilon^3 r0^5)^2
    mu      = theta^(1 + 1/nu) / 2
    alpha   solves 1 - mu/2 = r0^alpha
    zeta    = delta0^27

Two variants differ in r0 and in where the source bound enters:

  "ivl":      r0 = 1/20 when S = 0, otherwise
              min(1/20, sqrt(delta1 / (400 (1+S)))); the formulas use
              the actual source sup.
  "increase": the iteration of rescaled functions amplifies the source,
              so the formulas use a source bound of 1 regardless of S;
              r0 = 1/20 for source-free problems, sqrt(delta1/800)
              otherwise, with delta1 read as the lemma's delta and
              delta2 as the universal fraction delta'.

Several outputs underflow double precision (mu and alpha have decimal
exponents on the order of -10^78), so every derived value is computed
with mpmath and kept as a high-precision decimal string in `precise`;
the float fields read 0.0 whenever the true value is below the float
range.  Getting 12 significant digits of mu requires working precision
comfortably above the ~79 digits of its exponent, hence the default
dps of 140.
"""

from __future__ import annotations

import dataclasses

import mpmath as mp

__all__ = [
    "ExplicitConstants",
    "explicit_constants",
    "increase_constants",
    "energy_constant",
    "gain_int_constant",
    "gain_reg_constant",
]

_PRECISE_FIELDS = ("r0", "epsilon", "theta", "nu", "mu", "alpha", "zeta")


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


@dataclasses.dataclass(frozen=True)
class ExplicitConstants:
    """Inputs and derived constants; see the module docstring.

    Float fields may underflow to 0.0; `precise` keeps every derived
    value as a 20-digit decimal string.
    """

    delta1: float
    delta2: float
    s_inf: float
    sigma: float
    c_universal: float
    delta0: float
    variant: str
    r0: float
    epsilon: float
    theta: float
    nu: float
    mu: float
    alpha: float
    zeta: float
    precise: dict

    def precise_value(self, name: str) -> mp.mpf:
        """Parse one derived constant back to an mpf."""
        with mp.workdps(60):
            return mp.mpf(self.precise[name])

    def as_tuple_str(self, digits: int = 12) -> tuple:
        """(r0, epsilon, theta, nu, mu, alpha) decimal strings."""
        with mp.workdps(60):
            return tuple(mp.nstr(mp.mpf(self.precise[k]), digits)
                         for k in _PRECISE_FIELDS[:-1])

    def describe(self) -> dict:
        out = dataclasses.asdict(self)
        out["precise"] = dict(self.precise)
        return out


def explicit_constants(delta1: float = 0.5, delta2: float = 0.5,
                       s_inf: float = 0.0, sigma: float = 0.25,
                       c_universal: float = 10.0, delta0: float = 0.01,
                       variant: str = "ivl", source_free=None,
                       dps: int = 140) -> ExplicitConstants:
    """Evaluate the constants chain; see the module docstring.

    source_free applies to the "increase" variant only and defaults to
    s_inf == 0.
    """
    if not (0.0 < delta1 < 1.0 and 0.0 < delta2 < 1.0):
        raise ValueError("delta1 and delta2 must lie in (0, 1)")
    if not 0.0 < sigma < 1.0 / 3.0:
        raise ValueError("sigma must lie in (0, 1/3)")
    if c_universal < 1.0:
        raise ValueError("the universal constant is at least 1")
    if s_inf < 0.0:
        raise ValueError("the source sup is nonnegative")
    if not 0.0 < delta0 < 1.0:
        raise ValueError("delta0 must lie in (0, 1)")
    if variant not in ("ivl", "increase"):
        raise ValueError("variant must be 'ivl' or 'increase'")
    if source_free is None:
        source_free = s_inf == 0.0

    with mp.workdps(dps):
        d1 = mp.mpf(delta1)
        d2 = mp.mpf(delta2)
        s = mp.mpf(s_inf)
        sig = mp.mpf(sigma)
        c = mp.mpf(c_universal)
        twenty_inv = mp.mpf(1) / 20

        if variant == "ivl":
            if s == 0:
                r0 = twenty_inv
            else:
                r0 = min(twenty_inv, mp.sqrt(d1 / (400 * (1 + s))))
            s_formula = s
        else:
            r0 = twenty_inv if source_free else mp.sqrt(d1 / 800)
            s_formula = mp.mpf(1)

        epsilon = (d1 * d2 / (8 * c)) ** (1 / sig)
        eps_pow = epsilon ** 3
        r0_pow = r0 ** 5
        theta = (d1 * d2) ** 2 / (8 * (d2 + c * (1 + s_formula)
                                       / (r0_pow * eps_pow))) ** 2
        q_half = mp.mpf(1) / 16
        nu = ((d1 * d2 / (4 * c)) * eps_pow * r0_pow) ** 2 / q_half
        mu = mp.exp((1 + 1 / nu) * mp.log(theta)) / 2
        # 1 - mu/2 rounds to 1 at any feasible precision, so expand the
        # logarithm when mu is far below the working resolution
        if mu < mp.mpf("1e-30"):
            alpha = (mu / 2) / (-mp.log(r0))
        else:
            alpha = mp.log(1 - mu / 2) / mp.log(r0)
        zeta = mp.mpf(delta0) ** 27

        derived = {"r0": r0, "epsilon": epsilon, "theta": theta, "nu": nu,
                   "mu": mu, "alpha": alpha, "zeta": zeta}
        precise = {k: mp.nstr(val, 20) for k, val in derived.items()}
        floats = {k: float(val) for k, val in derived.items()}

    return ExplicitConstants(
        delta1=float(delta1), delta2=float(delta2), s_inf=float(s_inf),
        sigma=float(sigma), c_universal=float(c_universal),
        delta0=float(delta0), variant=variant, precise=precise, **floats)


def increase_constants(delta: float, source_free: bool = True,
                       delta_prime: float = 0.5, **kwargs) -> ExplicitConstants:
    """Constants for the measure-to-pointwise lemma at lowering fraction delta."""
    return explicit_constants(delta1=delta, delta2=delta_prime,
                              variant="increase", source_free=source_free,
                              **kwargs)
