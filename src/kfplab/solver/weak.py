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
           "basis_read_window", "weak_residual", "WeakResidualReport",
           "indicator_subsolution", "translated_kernel_solution"]


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

    def value_and_deriv(self, s):
        """beta(s) and beta'(s) from one softplus term.

        With z = (s - c) / eta and l = log(1 + exp(-|z|)), beta is
        eta (max(z, 0) + l) and beta' is exp(min(z, 0) - l).  numpy's
        logaddexp(0, y) evaluates exactly max(y, 0) + l (its y == 0
        branch gives log 2 on both sides), so both are bitwise
        eta logaddexp(0, z) and exp(-logaddexp(0, -z)).
        """
        # three buffers written in place; out= keeps 0-d input an array
        shape = np.shape(s)
        z = np.subtract(s, self.threshold, out=np.empty(shape))
        z /= self.width
        l = np.abs(z, out=np.empty(shape))
        np.logaddexp(0.0, np.negative(l, out=l), out=l)
        value = np.maximum(z, 0.0, out=np.empty(shape))
        value += l
        value *= self.width
        deriv = np.minimum(z, 0.0, out=z)
        deriv -= l
        return value, np.exp(deriv, out=deriv)

    def value(self, s):
        return self.value_and_deriv(s)[0]

    def deriv(self, s):
        return self.value_and_deriv(s)[1]

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


def basis_windows(f: GridFunction, phis=None):
    """The test bumps and each one's index window on f's grid.

    phis defaults to the basis tiling the safe box over the stored
    slice times.  Raises ValueError when the basis is empty or a
    support leaves that safe box, and EmptyBumpError when a support
    holds no cell center on some axis.
    """
    safe = dataclasses.replace(f.safe_box, t0=float(f.times[0]),
                               t1=float(f.times[-1]))
    if phis is None:
        phis = default_test_basis(((safe.t0, safe.t1), (safe.x0, safe.x1),
                                   (safe.v0, safe.v1)))
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


def basis_read_window(f: GridFunction, phis=None) -> tuple:
    """The cells of f weak_residual reads for basis_windows(f, phis)'s
    bumps: the read_window of their supports."""
    phis, _ = basis_windows(f, phis)
    return f.read_window(phi.support() for phi in phis)


def default_hinges(f_min, f_max):
    """Hinges whose 5 thresholds span the observed range of f, each at
    widths 0.03, 0.1 and 0.3 of that range."""
    span = max(f_max - f_min, 1e-12)
    thresholds = f_min + span * (np.arange(5) + 0.5) / 5
    return [HingeProfile(float(c), float(w * span))
            for c in thresholds for w in (0.03, 0.1, 0.3)]


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
                  phis=None, tolerance=None,
                  direction="sub") -> WeakResidualReport:
    """Max weak residual of f over a (beta, phi) basis.

    direction "sub" tests the sub-solution inequality, "super" the
    mirrored one.  phis is read by basis_windows, which rejects an
    empty basis and bumps outside the safe box or holding no cell
    center.  Positive residuals beyond the tolerance mean the
    inequality fails.

    Each hinge's value and derivative come from one shared softplus
    term (HingeProfile.value_and_deriv).  They, the velocity gradient,
    the coefficients and the bump-independent products A grad_v beta(f)
    and S beta'(f) + B grad_v beta(f) are evaluated once per hinge, on
    basis_read_window (the read_window of the bump supports), where the
    gradient is the whole grid's at every cell a bump reads; only that
    window of f is copied, and f may store only its (x, v) part.  One
    hinge's fields are freed before the next hinge's are allocated.
    The integrand's products and term order are fixed (beta(f) times
    the stored -T phi is the IEEE product -beta(f) T phi), so the
    residuals are bitwise those of a per-bump evaluation on the full
    grid.
    """
    if direction not in ("sub", "super"):
        raise ValueError("direction must be 'sub' or 'super'")
    sgn = 1.0 if direction == "sub" else -1.0

    phis, windows = basis_windows(f, phis)
    if betas is None:
        fmin, fmax = f.extrema
        betas = default_hinges(*((fmin, fmax) if sgn > 0
                                 else (-fmax, -fmin)))
    if len(betas) == 0:
        raise ValueError("betas is empty: no (beta, phi) pair to test")
    if tolerance is None:
        from ..calibration import grid_tolerance
        tolerance = grid_tolerance(f.dt, f.dx, f.dv)

    measure = f.cell_measure
    union = basis_read_window(f, phis)
    lo = [s.start for s in union]
    T, X, V = np.ix_(f.times[union[0]], f.xs[union[1]], f.vs[union[2]])
    A = np.asarray(coef.diffusion(T, X, V), float)
    B = np.asarray(coef.drift(T, X, V), float)
    S = sgn * np.asarray(coef.source(T, X, V), float)

    # each bump on open grids of its own window, at its offset in union;
    # -T phi is stored so that beta(f) needs no negated copy per hinge
    phi_data = []
    for phi, w in zip(phis, windows):
        sl = tuple(slice(s.start - a, s.stop - a) for s, a in zip(w, lo))
        T, X, V = np.ix_(f.times[w[0]], f.xs[w[1]], f.vs[w[2]])
        phi_data.append((sl, -phi.transport(T, X, V), phi.value(T, X, V),
                         phi.grad_v(T, X, V)))

    rows = []
    worst = None
    fu = sgn * f.values[union]
    for beta in betas:
        sums = _hinge_sums(beta, fu, f.dv, A, B, S, phi_data)
        for k, total in enumerate(sums):
            r = measure * total
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


def _hinge_sums(beta, fu, dv, A, B, S, phi_data) -> list:
    """The integral sums of one hinge against each bump of phi_data.

    The hinge's fields are freed on return, before the next hinge
    allocates its own.
    """
    bf, dbf = beta.value_and_deriv(fu)
    gbf = velocity_gradient(bf, dv)
    # the bump-independent factors, once per hinge and in place:
    # S beta'(f) + B grad_v beta(f) and A grad_v beta(f)
    w = np.multiply(S, dbf, out=dbf)
    w += B * gbf
    agbf = np.multiply(gbf, A, out=gbf)
    return [float(np.sum(bf[sl] * ntphi + agbf[sl] * gphi - w[sl] * pval))
            for sl, ntphi, pval, gphi in phi_data]


def indicator_subsolution(c, a, times, xs, vs) -> GridFunction:
    """Sampled traveling half-space indicator 1_{x + c t < a}.

    A weak sub-solution of the source-free equation whenever |c| is at
    least the sup of |v| over the region where it is tested, since its
    only distributional contribution is -(c + v) times a surface
    measure on the discontinuity line.  The values do not depend on v:
    they are a read-only broadcast view of one (nt, nx, 1) array.
    """
    times, xs, vs = (np.asarray(axis, dtype=float) for axis in (times, xs, vs))
    tx = (xs[None, :, None] + c * times[:, None, None] < a).astype(float)
    return GridFunction(
        times, xs, vs, np.broadcast_to(tx, (times.size, xs.size, vs.size)),
        meta={"scheme": "indicator", "speed": c, "offset": a})


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
