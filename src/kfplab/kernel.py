"""Fundamental solution of the constant-coefficient kinetic equation.

The kernel

    G(t, x, v) = (3 / (4 pi^2 t^4))^{1/2}
                 * exp(-3 (x - (t/2) v)^2 / t^3 - v^2 / (4 t)),   t > 0,

extended by 0 for t <= 0, solves

    dG/dt + v dG/dx = d^2G/dv^2

with a point mass at the origin as initial datum.  This module provides
pointwise evaluation, mass and PDE-residual diagnostics, the mass of the
small-time part of the smooth splitting in time, and the convolution
representation of solutions with a source term.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import as_point, inverse

__all__ = [
    "kolmogorov_g",
    "detuned_kernel",
    "kernel_mass",
    "kernel_pde_residual",
    "semigroup_defect",
    "smooth_step",
    "split_kernel_l1",
    "convolve_representation",
    "translated_kernel_values",
]

# exp() underflows to subnormal around -708; below this floor the kernel
# is returned as exact 0.
EXP_FLOOR = -700.0


def _kernel(t, x, v, v_divisor):
    """Kernel body with velocity exponent v^2 / (v_divisor t), broadcast
    entrywise.  Each factor stays on the shape of the inputs it reads
    (0-d numpy arrays for a scalar t), so only the products are
    full-size.

    The full-size stages (u, u^2, the exponent, the masked exponent, the
    exponential and the masked product) are computed in place in the one
    array returned, beside one boolean mask.  Each is the same IEEE
    operation on the same operands as the literal formula
    pref * exp(-3 u^2 / t^3 - v^2 / (v_divisor t)), so the values are
    bitwise those of a fresh array per stage.  The quadratures call this
    once per point on the same grid; a fresh temporary per stage went
    back to the OS and was faulted in again on every call."""
    t, x, v = np.asarray(t, float), np.asarray(x, float), np.asarray(v, float)
    out = np.empty(np.broadcast_shapes(t.shape, x.shape, v.shape))
    pos = t > 0.0
    ts = np.where(pos, t, 1.0)
    np.subtract(x, 0.5 * t * v, out=out)                   # u
    np.multiply(out, out, out=out)                         # u^2
    np.multiply(-3.0, out, out=out)
    np.divide(out, ts**3, out=out)
    np.subtract(out, v * v / (v_divisor * ts), out=out)    # exponent
    drop = ~(pos & (out >= EXP_FLOOR))
    np.copyto(out, 0.0, where=drop)
    np.exp(out, out=out)
    np.multiply((3.0 / (4.0 * math.pi**2)) ** 0.5 * ts ** -2.0, out, out=out)
    np.copyto(out, 0.0, where=drop)
    if out.ndim == 0:
        return float(out)
    return out


def kolmogorov_g(t, x, v, d=1):
    """Evaluate G(t, x, v); zero for t <= 0 or once exp underflows.

    d is the phase-space dimension; only d = 1 is implemented.  The
    slot stays because perfbench/spans.py passes it positionally.
    """
    if d != 1:
        raise NotImplementedError("the kernel is implemented for d = 1")
    return _kernel(t, x, v, 4.0)


def detuned_kernel(t, x, v):
    """Negative control: same prefactor but velocity exponent v^2/(2t).

    Not a solution of the kinetic equation; used to verify that the PDE
    residual diagnostic actually rejects a wrong kernel.
    """
    return _kernel(t, x, v, 2.0)


def _sheared_grid(t, n):
    """Midpoint grid adapted to the kernel concentration at time t.

    Substituting u = x - (t/2) v (unit Jacobian) factorizes G into
    independent Gaussians in u and v; the quadrature covers
    |u| <= 8 t^{3/2} and |v| <= 8 sqrt(t).
    """
    uh = 8.0 * t**1.5
    vh = 8.0 * math.sqrt(t)
    frac = (np.arange(n) + 0.5) / n
    u = -uh + 2.0 * uh * frac
    v = -vh + 2.0 * vh * frac
    du = 2.0 * uh / n
    dv = 2.0 * vh / n
    return u, v, du, dv


def kernel_mass(t):
    """Total integral of G(t, ., .) by sheared midpoint quadrature on
    256 x 256 points.

    The analytic truncation error of the sheared domain is
    1 - erf(8 sqrt(3)) erf(4) = 1.54e-8 at every t > 0.
    """
    if t <= 0.0:
        raise ValueError("kernel_mass requires t > 0")
    u, v, du, dv = _sheared_grid(t, 256)
    U, V = np.meshgrid(u, v, indexing="ij")
    X = U + 0.5 * t * V
    vals = kolmogorov_g(t, X, V)
    return float(np.sum(vals) * du * dv)


def kernel_pde_residual(h, kernel=None):
    """Max centered-difference residual of dG/dt + v dG/dx - d2G/dv2.

    Evaluated on a 9^3 midpoint lattice of [0.5, 1] x [-1, 1]^2, whose
    time range must stay more than h away from 0.  Returns the max
    absolute residual, an O(h^2) quantity for the true kernel.
    """
    if kernel is None:
        kernel = kolmogorov_g
    (t0, t1), (x0, x1), (v0, v1) = (0.5, 1.0), (-1.0, 1.0), (-1.0, 1.0)
    if t0 - h <= 0.0:
        raise ValueError("pde residual region must satisfy t0 > h")
    frac = (np.arange(9) + 0.5) / 9
    T, X, V = np.meshgrid(t0 + (t1 - t0) * frac,
                          x0 + (x1 - x0) * frac,
                          v0 + (v1 - v0) * frac, indexing="ij")
    dt = (kernel(T + h, X, V) - kernel(T - h, X, V)) / (2.0 * h)
    dx = (kernel(T, X + h, V) - kernel(T, X - h, V)) / (2.0 * h)
    dvv = (kernel(T, X, V + h) - 2.0 * kernel(T, X, V)
           + kernel(T, X, V - h)) / h**2
    return float(np.max(np.abs(dt + V * dx - dvv)))


def semigroup_defect(t, s, points):
    """Max defect of G(t) = G(s) * G(t-s) over the given (x, v) points.

    The inner convolution integral runs on the 400 x 400 sheared
    midpoint grid of the G(t - s) factor.
    """
    if not (0.0 < s < t):
        raise ValueError("semigroup_defect requires 0 < s < t")
    u, vv, du, dv = _sheared_grid(t - s, 400)
    U, V2 = np.meshgrid(u, vv, indexing="ij")
    X2 = U + 0.5 * (t - s) * V2
    inner = kolmogorov_g(t - s, X2, V2)
    worst = 0.0
    for (x, v) in points:
        outer = kolmogorov_g(s, x - X2 - s * V2, v - V2)
        conv = float(np.sum(np.multiply(outer, inner, out=outer)) * du * dv)
        worst = max(worst, abs(conv - kolmogorov_g(t, x, v)))
    return worst


def smooth_step(s):
    """C-infinity transition: 1 for s <= 1, 0 for s >= 2, smooth between."""
    s = np.asarray(s, dtype=float)

    def phi(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0.0
        out[pos] = np.exp(-1.0 / r[pos])
        return out

    lo = phi(2.0 - s)
    hi = phi(s - 1.0)
    with np.errstate(invalid="ignore"):
        val = lo / (lo + hi)
    val = np.where(s <= 1.0, 1.0, np.where(s >= 2.0, 0.0, val))
    if val.ndim == 0:
        return float(val)
    return val


def split_kernel_l1(eps):
    """Integral of |G_eps| over all of (0, infinity) x R^2, where
    G_eps(t, .) = smooth_step(t / eps) G(t, .) is the small-time part of
    G: supported in t <= 2 eps and equal to G for t <= eps.

    Since the mass of G(t, ., .) is identically 1 the integral reduces
    to eps * int_0^2 smooth_step; the value sits strictly between eps and
    2 eps and scales linearly in eps; the midpoint rule on 4096 panels
    evaluates the last integral.
    """
    s = (np.arange(4096) + 0.5) * (2.0 / 4096)
    return float(eps * np.sum(smooth_step(s)) * (2.0 / 4096))


def translated_kernel_values(z0, t, x, v):
    """G evaluated in the frame translated by z0: G(z0^{-1} o z).

    z0 may be a PhasePoint or an (t0, x0, v0) triple.  The translate of
    an exact solution is an exact solution with point source at z0.
    """
    inv = inverse(as_point(z0))
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    tt = inv.t + t
    xx = inv.x + x + t * inv.v
    vv = inv.v + v
    return kolmogorov_g(tt, xx, vv)


def _slice_quadrature(tau, xg, vg, slab, x, v, dx, dv):
    """Integral of G(tau, x - x' - tau v', v - v') slab(x', v') dx' dv'."""
    V = vg[None, :]
    g = kolmogorov_g(tau, x - xg[:, None] - tau * V, v - V)
    return float(np.sum(np.multiply(g, slab, out=g)) * dx * dv)


def convolve_representation(source, eval_points):
    """Duhamel convolution of the kernel with a gridded source.

    source: a (times, xs, vs, values) tuple, values of shape
    (nt, nx, nv) on uniform axes; eval_points: a (t, x, v) tuple of
    broadcastable coordinate arrays.  A single time slice is treated
    as an initial datum: the slice is propagated without a time
    weight.  Several slices form a space-time source
    integrated in the elapsed time tau with midpoint panels; panels
    shorter than the source time spacing refine geometrically (factor
    2) toward the kernel concentration endpoint tau -> 0, and the
    remaining [0, tau_cut] sliver, tau_cut set by the source cell sizes,
    is accounted by the flat-source correction tau_cut * S(z).

    Evaluation points earlier than the whole source support return 0.
    """
    times, xs, vs, values = (np.asarray(a, float) for a in source)
    if values.ndim != 3 or values.shape != (times.size, xs.size, vs.size):
        raise ValueError("source values must have shape (nt, nx, nv)")
    dx = float(xs[1] - xs[0]) if xs.size > 1 else 1.0
    dv = float(vs[1] - vs[0]) if vs.size > 1 else 1.0
    te, xe, ve = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, float)) for a in eval_points))
    out = np.zeros(te.shape, dtype=float)

    if times.size == 1:
        t0 = float(times[0])
        for i in np.ndindex(te.shape):
            tau = te[i] - t0
            if tau <= 0.0:
                continue
            out[i] = _slice_quadrature(tau, xs, vs, values[0], xe[i], ve[i],
                                       dx, dv)
        return out

    dt_src = float(times[1] - times[0])
    tau_cut = max((24.0 * dx * dx) ** (1.0 / 3.0), 2.0 * dv * dv, 1e-9)

    def slab_at(tp):
        """Source slice at absolute time tp, linear in time, clamped."""
        pos = (tp - times[0]) / dt_src
        j = int(np.clip(np.floor(pos), 0, times.size - 2))
        w = float(np.clip(pos - j, 0.0, 1.0))
        return (1.0 - w) * values[j] + w * values[j + 1]

    def tail_value(tp, x, v):
        """Source value at the tail midpoint time, nearest cell in (x, v)."""
        slab = slab_at(tp)
        ix = int(np.clip(round((x - xs[0]) / dx), 0, xs.size - 1))
        iv = int(np.clip(round((v - vs[0]) / dv), 0, vs.size - 1))
        return float(slab[ix, iv])

    t_lo = float(times[0]) - 0.5 * dt_src
    for i in np.ndindex(te.shape):
        t, x, v = float(te[i]), float(xe[i]), float(ve[i])
        horizon = t - t_lo
        if horizon <= 0.0:
            continue
        if horizon <= tau_cut:
            out[i] = horizon * tail_value(t - 0.5 * horizon, x, v)
            continue
        total = tau_cut * tail_value(t - 0.5 * tau_cut, x, v)
        lo = tau_cut
        while lo < horizon:
            hi = min(2.0 * lo, horizon)
            pieces = max(1, int(math.ceil((hi - lo) / dt_src)))
            for k in range(pieces):
                a = lo + (hi - lo) * k / pieces
                b = lo + (hi - lo) * (k + 1) / pieces
                mid = 0.5 * (a + b)
                slab = slab_at(t - mid)
                total += (b - a) * _slice_quadrature(mid, xs, vs, slab,
                                                     x, v, dx, dv)
            lo = hi
        out[i] = total
    return out
