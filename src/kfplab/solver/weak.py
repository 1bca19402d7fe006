"""Weak sub/super-solution verification on gridded functions.

A function f is tested against the distributional inequality

    T beta(f) <= div_v (A grad_v beta(f)) + B . grad_v beta(f) + S beta'(f)

for nondecreasing convex hinge profiles beta, by integrating against a
basis of smooth compactly supported test functions phi >= 0:

    R(beta, phi) = - int beta(f) (T phi)
                   + int A grad_v beta(f) . grad_v phi
                   - int (B . grad_v beta(f) + S beta'(f)) phi

with T phi = d phi/dt + v d phi/dx computed analytically.  R <= 0 for
smooth sub-solutions; the discrete residual is compared against a
grid-scaled tolerance.  Super-solutions are verified through the
mirror identity: f is a super-solution iff -f is a sub-solution for
the source -S.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..geometry import as_point
from ..kernel import translated_kernel_values
from .coefficients import CoefficientField
from .grid import (GridFunction, InsufficientResolutionError,
                   sample_function, velocity_gradient)

__all__ = ["TestBump", "HingeProfile", "default_test_basis",
           "default_hinges", "EmptyBumpError", "basis_windows",
           "weak_residual", "WeakResidualReport", "indicator_subsolution",
           "translated_kernel_solution"]


def _profile(s):
    """C-infinity bump exp(1 - 1/(1 - s^2)) on (-1, 1), peak 1."""
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _profile_deriv(s):
    s = np.asarray(s, float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = (np.exp(1.0 - 1.0 / (1.0 - si * si))
                   * (-2.0 * si) / (1.0 - si * si) ** 2)
    return out


@dataclasses.dataclass(frozen=True)
class TestBump:
    """Tensor product C-infinity test function with box support; its
    methods broadcast over full and open (np.ix_) grids alike."""

    __test__ = False  # not a pytest collection target

    center: tuple
    widths: tuple

    def _s(self, T, X, V):
        (tc, xc, vc) = self.center
        (wt, wx, wv) = self.widths
        return (T - tc) / wt, (X - xc) / wx, (V - vc) / wv

    def value(self, T, X, V):
        st, sx, sv = self._s(T, X, V)
        return _profile(st) * _profile(sx) * _profile(sv)

    def transport(self, T, X, V):
        """T phi = d/dt phi + v d/dx phi, analytic."""
        st, sx, sv = self._s(T, X, V)
        pt, px, pv = _profile(st), _profile(sx), _profile(sv)
        dt = _profile_deriv(st) / self.widths[0]
        dx = _profile_deriv(sx) / self.widths[1]
        return dt * px * pv + V * pt * dx * pv

    def grad_v(self, T, X, V):
        st, sx, sv = self._s(T, X, V)
        return _profile(st) * _profile(sx) * _profile_deriv(sv) / self.widths[2]

    def support(self):
        (tc, xc, vc) = self.center
        (wt, wx, wv) = self.widths
        return ((tc - wt, tc + wt), (xc - wx, xc + wx), (vc - wv, vc + wv))

    def describe(self):
        return {"center": list(self.center), "widths": list(self.widths)}


@dataclasses.dataclass(frozen=True)
class HingeProfile:
    """Softplus hinge beta(s) = eta log(1 + exp((s - c) / eta)).

    Nondecreasing and convex for every width eta > 0; converges to the
    ramp (s - c)_+ as eta -> 0.
    """

    threshold: float
    width: float

    def value(self, s):
        z = (np.asarray(s, float) - self.threshold) / self.width
        return self.width * np.logaddexp(0.0, z)

    def deriv(self, s):
        z = (np.asarray(s, float) - self.threshold) / self.width
        out = np.empty_like(z)
        np.exp(-np.logaddexp(0.0, -z), out=out)
        return out

    def describe(self):
        return {"threshold": self.threshold, "width": self.width}


def default_test_basis(region, n=(2, 3, 3)):
    """Bumps tiling a box region ((t0,t1),(x0,x1),(v0,v1)).

    Centers sit on an n-point lattice per axis and widths equal the
    center spacing, so every support stays strictly inside the region
    while neighbouring supports overlap.
    """
    (t0, t1), (x0, x1), (v0, v1) = region
    nt, nx, nv = n
    bumps = []

    def centers(lo, hi, m):
        w = (hi - lo) / (m + 1)
        return [lo + w * (i + 1) for i in range(m)], w

    tcs, wt = centers(t0, t1, nt)
    xcs, wx = centers(x0, x1, nx)
    vcs, wv = centers(v0, v1, nv)
    for tc in tcs:
        for xc in xcs:
            for vc in vcs:
                bumps.append(TestBump((tc, xc, vc), (wt, wx, wv)))
    return bumps


class EmptyBumpError(InsufficientResolutionError):
    """A test bump's support holds no cell center on grid axis
    `axis` (0, 1, 2 for t, x, v)."""

    def __init__(self, phi: TestBump, axis: int):
        self.axis = axis
        super().__init__(f"test bump {phi.support()} holds no cell center")


def basis_windows(f: GridFunction, phis=None, region=None):
    """The test bumps and each one's index window on f's grid.

    phis defaults to the basis tiling region, itself by default the
    safe box over the stored slice times.  Raises ValueError when the
    basis is empty or a support leaves that safe box, and EmptyBumpError
    when a support holds no cell center on some axis.
    """
    safe = dataclasses.replace(f.safe_box, t0=float(f.times[0]),
                               t1=float(f.times[-1]))
    if phis is None:
        if region is None:
            region = ((safe.t0, safe.t1), (safe.x0, safe.x1),
                      (safe.v0, safe.v1))
        phis = default_test_basis(region)
    if len(phis) == 0:
        raise ValueError("phis is empty: no (beta, phi) pair to test")
    windows = [f.window(phi.support()) for phi in phis]
    for phi, w in zip(phis, windows):
        if not safe.contains(phi.support()):
            raise ValueError(
                f"test bump support {phi.support()} leaves the safe box")
        for axis, s in enumerate(w):
            if s.start == s.stop:
                raise EmptyBumpError(phi, axis)
    return phis, windows


def default_hinges(f_min, f_max, n_thresholds=5, rel_widths=(0.03, 0.1, 0.3)):
    """Hinges whose thresholds span the observed range of f."""
    span = max(f_max - f_min, 1e-12)
    thresholds = f_min + span * (np.arange(n_thresholds) + 0.5) / n_thresholds
    return [HingeProfile(float(c), float(w * span))
            for c in thresholds for w in rel_widths]


@dataclasses.dataclass
class WeakResidualReport:
    max_residual: float
    tolerance: float
    passed: bool
    direction: str
    worst_pair: dict
    n_pairs: int
    residuals: list

    def to_json_dict(self):
        return dataclasses.asdict(self)


def weak_residual(f: GridFunction, coef: CoefficientField, *, betas=None,
                  phis=None, tolerance=None, direction="sub",
                  region=None) -> WeakResidualReport:
    """Max weak residual of f over a (beta, phi) basis.

    direction "sub" tests the sub-solution inequality, "super" the
    mirrored one.  phis and region are read by basis_windows, which
    rejects an empty basis and bumps outside the safe box or holding no
    cell center.  Positive residuals beyond the tolerance mean the
    inequality fails.

    The hinges, their velocity gradient, the coefficients and the
    bump-independent products -beta(f), A grad_v beta(f) and
    B grad_v beta(f) + S beta'(f) are evaluated once per hinge, on the
    bounding index window of the bump supports widened by one v cell
    per side (clipped to the grid), where the gradient is the full
    grid's at every cell a bump reads.  The integrand's products and
    term order are fixed, so the residuals are bitwise those of a
    per-bump evaluation on the full grid.
    """
    if direction not in ("sub", "super"):
        raise ValueError("direction must be 'sub' or 'super'")
    sgn = 1.0 if direction == "sub" else -1.0
    fv = sgn * f.values

    phis, windows = basis_windows(f, phis, region)
    if betas is None:
        betas = default_hinges(float(fv.min()), float(fv.max()))
    if len(betas) == 0:
        raise ValueError("betas is empty: no (beta, phi) pair to test")
    if tolerance is None:
        from ..calibration import grid_tolerance
        tolerance = grid_tolerance(f.dt, f.dx, f.dv)

    measure = f.cell_measure
    # bumps' bounding window plus one v cell per side (slicing clips hi)
    lo = [min(s.start for s in axis) for axis in zip(*windows)]
    hi = [max(s.stop for s in axis) for axis in zip(*windows)]
    lo[2], hi[2] = max(lo[2] - 1, 0), hi[2] + 1
    union = tuple(map(slice, lo, hi))
    T, X, V = np.ix_(f.times[union[0]], f.xs[union[1]], f.vs[union[2]])
    A = np.asarray(coef.diffusion(T, X, V), float)
    B = np.asarray(coef.drift(T, X, V), float)
    S = sgn * np.asarray(coef.source(T, X, V), float)

    # each bump on open grids of its own window, at its offset in union
    phi_data = []
    for phi, w in zip(phis, windows):
        sl = tuple(slice(s.start - a, s.stop - a) for s, a in zip(w, lo))
        T, X, V = np.ix_(f.times[w[0]], f.xs[w[1]], f.vs[w[2]])
        phi_data.append((sl, phi.transport(T, X, V), phi.value(T, X, V),
                         phi.grad_v(T, X, V)))

    rows = []
    worst = None
    fu = fv[union]
    for beta in betas:
        bf = beta.value(fu)
        gbf = velocity_gradient(bf, f.dv)
        # the bump-independent factors, once per hinge and in place:
        # -beta(f), A grad_v beta(f) and B grad_v beta(f) + S beta'(f)
        nbf = np.negative(bf, out=bf)
        w = B * gbf
        w += S * beta.deriv(fu)
        agbf = np.multiply(gbf, A, out=gbf)
        for k, (sl, tphi, pval, gphi) in enumerate(phi_data):
            r = measure * float(np.sum(nbf[sl] * tphi + agbf[sl] * gphi
                                       - w[sl] * pval))
            rows.append({"beta": beta.describe(), "phi_index": k,
                         "residual": r})
            if worst is None or r > worst["residual"]:
                worst = rows[-1]
    max_res = worst["residual"]
    return WeakResidualReport(
        max_residual=float(max_res),
        tolerance=float(tolerance),
        passed=bool(max_res <= tolerance),
        direction=direction,
        worst_pair=dict(worst),
        n_pairs=len(rows),
        residuals=rows,
    )


def indicator_subsolution(c, a, times, xs, vs, pad_x=0.0,
                          pad_v=0.0) -> GridFunction:
    """Sampled traveling half-space indicator 1_{x + c t < a}.

    A weak sub-solution of the source-free equation whenever |c| is at
    least the sup of |v| over the region where it is tested, since its
    only distributional contribution is -(c + v) times a surface
    measure on the discontinuity line.
    """
    gf = sample_function(
        lambda T, X, V: (X + c * T < a).astype(float) + 0.0 * V,
        times, xs, vs, pad_x=pad_x, pad_v=pad_v,
        meta={"scheme": "indicator", "speed": c, "offset": a})
    return gf


def translated_kernel_solution(z0, times, xs, vs, pad_x=0.0,
                               pad_v=0.0) -> GridFunction:
    """Exact positive solution: the kernel translated to emanate from z0."""
    z0 = as_point(z0)
    gf = sample_function(
        lambda T, X, V: translated_kernel_values(z0, T, X, V),
        times, xs, vs, pad_x=pad_x, pad_v=pad_v,
        meta={"scheme": "translated_kernel",
              "pole": z0.to_json()})
    return gf
