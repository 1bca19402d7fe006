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

What does not depend on beta or the direction is built once by
weak_basis and shared by both directions: f's view on the bumps' read
window, the coefficients once per coefficient time cell, and each
bump's -T phi, grad_v phi and the two factors of phi.  weak_residual
reads only that basis: it forms the rest per hinge in three
window-sized buffers and per pair in two bump-sized ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..calibration import grid_tolerance
from ..geometry import as_point
from ..kernel import translated_kernel_values
from .coefficients import CoefficientField, time_cell_runs
from .grid import (GridFunction, InsufficientResolutionError,
                   sample_function, velocity_gradient, window_union)

__all__ = ["TestBump", "HingeProfile", "default_test_basis",
           "default_hinges", "EmptyBumpError", "basis_windows",
           "basis_read_window", "WeakBasis", "weak_basis", "weak_residual",
           "WeakResidualReport",
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

    def value_factors(self, T, X, V):
        """(pt px, pv), whose product is value: a caller may form it in
        a buffer of its own."""
        st, sx, sv = self._s(T, X, V)
        return _profile(st) * _profile(sx), _profile(sv)

    def value(self, T, X, V):
        tx, pv = self.value_factors(T, X, V)
        return tx * pv

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


@dataclasses.dataclass(frozen=True)
class HingeProfile:
    """Softplus hinge beta(s) = eta log(1 + exp((s - c) / eta)).

    Nondecreasing and convex for every width eta > 0; converges to the
    ramp (s - c)_+ as eta -> 0.
    """

    threshold: float
    width: float

    def value_and_deriv(self, s, out=None, negate=False):
        """beta(s) and beta'(s) from one softplus term; of -s if negate.

        With z = (s - c) / eta and l = log(1 + exp(-|z|)), beta is
        eta (max(z, 0) + l) and beta' is exp(min(z, 0) - l).  numpy's
        logaddexp(0, y) evaluates exactly max(y, 0) + l (its y == 0
        branch gives log 2 on both sides), so both are bitwise
        eta logaddexp(0, z) and exp(-logaddexp(0, -z)).

        out, three float arrays of s's shape, receives beta, beta' and
        a scratch term, and the first two are returned; without it
        three are allocated.  negate reads -s without a negated copy:
        (-s) - c is the IEEE (-c) - s.
        """
        if out is None:
            out = tuple(np.empty(np.shape(s)) for _ in range(3))
        value, z, l = out
        if negate:
            np.subtract(-self.threshold, s, out=z)
        else:
            np.subtract(s, self.threshold, out=z)
        z /= self.width
        np.copysign(z, -1.0, out=l)  # -|z|
        np.logaddexp(0.0, l, out=l)
        np.maximum(z, 0.0, out=value)
        value += l
        value *= self.width
        deriv = np.minimum(z, 0.0, out=z)
        deriv -= l
        return value, np.exp(deriv, out=deriv)

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
    return window_union(basis_windows(f, phis)[1])


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


@dataclasses.dataclass(frozen=True, eq=False)
class WeakBasis:
    """What weak_residual reads of f, coef and the test bumps, built
    once for both directions by weak_basis."""

    f: GridFunction
    values: np.ndarray  # f.values on basis_read_window, a view
    groups: list  # (t slice of the window, A, B, S) per time cell
    bumps: list  # (window slice, -T phi, grad_v phi, (pt px, pv))


def weak_basis(f: GridFunction, coef: CoefficientField,
               phis=None) -> WeakBasis:
    """The bump and coefficient data of weak_residual on f for phis
    (default: basis_windows' basis), which both directions share.

    basis_windows validates phis, and f is read on the union of their
    windows (basis_read_window), through a view.  The field depends on
    t only through coef.time_cell, so A, B and S are sampled once per
    run of window slices in one time cell (time_cell_runs), as
    (1, nx, nv) rows that broadcast over the run.  Each bump keeps, on
    open grids of its own window, -T phi and grad_v phi at full size,
    and the factors (pt px, pv) whose product is phi.
    """
    phis, windows = basis_windows(f, phis)
    union = window_union(windows)
    T, X, V = np.ix_(f.times[union[0]], f.xs[union[1]], f.vs[union[2]])
    groups = [(slice(a, b), *(np.asarray(field(T[a:a + 1], X, V), float)
                              for field in (coef.diffusion, coef.drift,
                                            coef.source)))
              for a, b in time_cell_runs(coef, T.ravel())]
    lo = [s.start for s in union]
    bumps = []
    for phi, w in zip(phis, windows):
        sl = tuple(slice(s.start - a, s.stop - a) for s, a in zip(w, lo))
        T, X, V = np.ix_(f.times[w[0]], f.xs[w[1]], f.vs[w[2]])
        bumps.append((sl, -phi.transport(T, X, V), phi.grad_v(T, X, V),
                      phi.value_factors(T, X, V)))
    return WeakBasis(f, f.values[union], groups, bumps)


def weak_residual(basis: WeakBasis, direction="sub") -> WeakResidualReport:
    """Max weak residual of basis.f over the pairs of default_hinges of
    its extrema (of -f for "super") and the basis's bumps.

    direction "sub" tests the sub-solution inequality, "super" the
    mirrored one.  basis is weak_basis(f, coef, phis), which both
    directions share.  Positive residuals beyond grid_tolerance of f's
    steps mean the inequality fails.

    Per hinge, its value and derivative (one shared softplus term,
    HingeProfile.value_and_deriv, of -f for "super"), the velocity
    gradient and the bump-independent products A grad_v beta(f) and
    S beta'(f) + B grad_v beta(f), the coefficients broadcast per time
    cell, are written on the basis window to three buffers that every
    hinge of the call reuses.  Per pair, phi is formed from its
    factors and the integrand summed in two bump-sized buffers.  The
    integrand's products and term order are fixed (beta(f) times the
    stored -T phi is the IEEE product -beta(f) T phi, and the mirror
    takes -S beta'(f) as -(S beta'(f))), so the residuals are bitwise
    those of a per-bump evaluation on the full grid.
    """
    if direction not in ("sub", "super"):
        raise ValueError("direction must be 'sub' or 'super'")
    negate = direction == "super"
    f = basis.f
    fmin, fmax = f.extrema
    betas = default_hinges(*((-fmax, -fmin) if negate else (fmin, fmax)))
    tolerance = grid_tolerance(f.dt, f.dx, f.dv)

    measure = f.cell_measure
    groups = [(g, A, B, -S if negate else S) for g, A, B, S in basis.groups]
    fields = tuple(np.empty(basis.values.shape) for _ in range(3))
    largest = max(ntphi.size for _, ntphi, _, _ in basis.bumps)
    pair = (np.empty(largest), np.empty(largest))
    rows = []
    worst = None
    for beta in betas:
        sums = _hinge_sums(beta, basis, negate, groups, fields, pair)
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


def _hinge_sums(beta, basis, negate, groups, fields, pair) -> list:
    """The integral sums of one hinge against each bump of basis, in
    the union-sized buffers fields and the bump-sized buffers pair."""
    bf, dbf = beta.value_and_deriv(basis.values, out=fields, negate=negate)
    gbf = velocity_gradient(bf, basis.f.dv, out=fields[2])
    # in place per time cell: S beta'(f) + B grad_v beta(f) in dbf's
    # buffer, then A grad_v beta(f) in gbf's
    for g, A, B, S in groups:
        w = np.multiply(S, dbf[g], out=dbf[g])
        w += B * gbf[g]
        np.multiply(gbf[g], A, out=gbf[g])
    sums = []
    for sl, ntphi, gphi, (tx, pv) in basis.bumps:
        a, b = (buf[:ntphi.size].reshape(ntphi.shape) for buf in pair)
        np.multiply(bf[sl], ntphi, out=a)
        a += np.multiply(gbf[sl], gphi, out=b)
        np.multiply(tx, pv, out=b)  # phi
        b *= dbf[sl]
        a -= b
        sums.append(float(np.sum(a)))
    return sums


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
