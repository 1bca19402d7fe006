"""Fundamental solution of the constant-coefficient kinetic equation.

The kernel

    G(t, x, v) = (3 / (4 pi^2 t^4))^{d/2}
                 * exp(-3|x - (t/2) v|^2 / t^3 - |v|^2 / (4 t)),   t > 0,

extended by 0 for t <= 0, solves

    dG/dt + v . grad_x G = Delta_v G

with a point mass at the origin as initial datum.  This module provides
pointwise evaluation, gradients, mass and PDE-residual diagnostics, the
smooth small-time / large-time splitting, and the convolution
representation of solutions with a source term.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import PhasePoint, inverse

__all__ = [
    "QuadratureError",
    "kolmogorov_g",
    "detuned_kernel",
    "kernel_gradients",
    "kernel_mass",
    "kernel_pde_residual",
    "kernel_gradient_bound_statistic",
    "semigroup_defect",
    "smooth_step",
    "split_kernel",
    "split_kernel_l1",
    "convolve_representation",
    "translated_kernel_values",
]

# exp() underflows to subnormal around -708; below this floor the kernel
# is returned as exact 0.
EXP_FLOOR = -700.0


class QuadratureError(ValueError):
    """Raised when a quadrature cannot meet its accuracy budget."""


def _kernel(t, x, v, d, v_divisor):
    """Kernel body with velocity exponent |v|^2 / (v_divisor t), d = 1:
    x and v are scalar fields broadcast entrywise, not vectors.  Each
    factor stays on the shape of the inputs it reads (0-d numpy arrays
    for a scalar t), so only the products are full-size."""
    if d != 1:
        raise NotImplementedError("the kernel is implemented for d = 1")
    t, x, v = np.asarray(t, float), np.asarray(x, float), np.asarray(v, float)
    u = x - 0.5 * t * v
    uu, vv = u * u, v * v
    pos = t > 0.0
    ts = np.where(pos, t, 1.0)
    expo = -3.0 * uu / ts**3 - vv / (v_divisor * ts)
    keep = pos & (expo >= EXP_FLOOR)
    pref = (3.0 / (4.0 * math.pi**2)) ** (0.5 * d) * ts ** (-2.0 * d)
    out = np.where(keep, pref * np.exp(np.where(keep, expo, 0.0)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def kolmogorov_g(t, x, v, d=1):
    """Evaluate G(t, x, v); zero for t <= 0 or once exp underflows."""
    return _kernel(t, x, v, d, 4.0)


def detuned_kernel(t, x, v, d=1):
    """Negative control: same prefactor but velocity exponent |v|^2/(2t).

    Not a solution of the kinetic equation; used to verify that the PDE
    residual diagnostic actually rejects a wrong kernel.
    """
    return _kernel(t, x, v, d, 2.0)


def kernel_gradients(t, x, v, d=1):
    """Spatial and velocity gradients of G for t > 0 (d = 1 entrywise).

    Returns (g, dG/dx, dG/dv).  Inputs with t <= 0 are rejected: the
    kernel is not differentiable across the initial time.
    """
    if d != 1:
        raise NotImplementedError("kernel_gradients is implemented for d = 1")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("kernel_gradients requires t > 0")
    t, x, v = np.broadcast_arrays(t, np.asarray(x, float), np.asarray(v, float))
    g = np.asarray(kolmogorov_g(t, x, v, d=1), dtype=float)
    u = x - 0.5 * t * v
    gx = -6.0 * u / t**3 * g
    gv = (3.0 * u / t**2 - v / (2.0 * t)) * g
    if g.ndim == 0:
        return float(g), float(gx), float(gv)
    return g, gx, gv


def _sheared_grid(t, n, mult):
    """Midpoint grid adapted to the kernel concentration at time t.

    Substituting u = x - (t/2) v (unit Jacobian) factorizes G into
    independent Gaussians in u and v; the quadrature covers
    |u| <= mult * t^{3/2} and |v| <= mult * sqrt(t).
    """
    uh = mult * t**1.5
    vh = mult * math.sqrt(t)
    frac = (np.arange(n) + 0.5) / n
    u = -uh + 2.0 * uh * frac
    v = -vh + 2.0 * vh * frac
    du = 2.0 * uh / n
    dv = 2.0 * vh / n
    return u, v, du, dv


def kernel_mass(t, n=256, mult=8.0, d=1):
    """Total integral of G(t, ., .) by sheared midpoint quadrature (d = 1).

    The analytic truncation error of the domain |u| <= mult t^{3/2},
    |v| <= mult sqrt(t) is 1 - erf(mult sqrt(3)) erf(mult / 2); if that
    alone exceeds 5e-7 the quadrature is refused rather than silently
    degraded.
    """
    if d != 1:
        raise NotImplementedError("kernel_mass is implemented for d = 1")
    if t <= 0.0:
        raise ValueError("kernel_mass requires t > 0")
    truncation = 1.0 - math.erf(mult * math.sqrt(3.0)) * math.erf(mult / 2.0)
    if truncation > 5e-7:
        raise QuadratureError(
            f"domain multiplier {mult} leaves truncation {truncation:.2e}")
    u, v, du, dv = _sheared_grid(t, n, mult)
    U, V = np.meshgrid(u, v, indexing="ij")
    X = U + 0.5 * t * V
    vals = kolmogorov_g(t, X, V, d=1)
    return float(np.sum(vals) * du * dv)


def kernel_pde_residual(h, region=((0.5, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                        n=9, kernel=None, d=1):
    """Max centered-difference residual of dG/dt + v dG/dx - d2G/dv2.

    Evaluated on an n^3 midpoint lattice of the region; the time range
    must stay at least h away from 0.  Returns the max absolute
    residual, an O(h^2) quantity for the true kernel.
    """
    if kernel is None:
        kernel = kolmogorov_g
    (t0, t1), (x0, x1), (v0, v1) = region
    if t0 - h <= 0.0:
        raise ValueError("pde residual region must satisfy t0 > h")
    frac = (np.arange(n) + 0.5) / n
    T, X, V = np.meshgrid(t0 + (t1 - t0) * frac,
                          x0 + (x1 - x0) * frac,
                          v0 + (v1 - v0) * frac, indexing="ij")
    dt = (kernel(T + h, X, V, d=d) - kernel(T - h, X, V, d=d)) / (2.0 * h)
    dx = (kernel(T, X + h, V, d=d) - kernel(T, X - h, V, d=d)) / (2.0 * h)
    dvv = (kernel(T, X, V + h, d=d) - 2.0 * kernel(T, X, V, d=d)
           + kernel(T, X, V - h, d=d)) / h**2
    return float(np.max(np.abs(dt + V * dx - dvv)))


def kernel_gradient_bound_statistic(n=48, t_range=(0.05, 2.0), span=3.0):
    """Sup of t^{2d+1/2} (|grad_v G| + t |grad_x G|) against the inverse
    half-Gaussian weight exp(3|x - tv/2|^2 / (2 t^3) + |v|^2 / (8 t)).

    Finite because the weight cancels only half of the kernel decay.
    Sampled on an n^3 lattice with d = 1.
    """
    frac = (np.arange(n) + 0.5) / n
    T, X, V = np.meshgrid(t_range[0] + (t_range[1] - t_range[0]) * frac,
                          -span + 2 * span * frac,
                          -span + 2 * span * frac, indexing="ij")
    g, gx, gv = kernel_gradients(T, X, V, d=1)
    u = X - 0.5 * T * V
    weight_log = 3.0 * u**2 / (2.0 * T**3) + V**2 / (8.0 * T)
    base = np.abs(gv) + T * np.abs(gx)
    with np.errstate(over="ignore", invalid="ignore"):
        stat = np.where(base > 0.0,
                        T**2.5 * base * np.exp(np.minimum(weight_log, 700.0)),
                        0.0)
    return float(np.max(stat))


def semigroup_defect(t, s, points, n=400, mult=8.0):
    """Max defect of G(t) = G(s) * G(t-s) over the given (x, v) points.

    The inner convolution integral runs on the sheared midpoint grid of
    the G(t - s) factor.
    """
    if not (0.0 < s < t):
        raise ValueError("semigroup_defect requires 0 < s < t")
    u, vv, du, dv = _sheared_grid(t - s, n, mult)
    U, V2 = np.meshgrid(u, vv, indexing="ij")
    X2 = U + 0.5 * (t - s) * V2
    inner = kolmogorov_g(t - s, X2, V2, d=1)
    worst = 0.0
    for (x, v) in points:
        outer = kolmogorov_g(s, x - X2 - s * V2, v - V2, d=1)
        conv = float(np.sum(outer * inner) * du * dv)
        worst = max(worst, abs(conv - kolmogorov_g(t, x, v, d=1)))
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


def split_kernel(eps):
    """Smooth splitting G = G_eps + G_perp at time scale eps.

    G_eps(t,.) = chi(t / eps) G(t,.) is supported in t <= 2 eps and
    matches G for t <= eps; G_perp carries the complement.  Both pieces
    are returned as callables with the kolmogorov_g signature.
    """
    if eps <= 0.0:
        raise ValueError("split_kernel requires eps > 0")

    def g_eps(t, x, v, d=1):
        g = kolmogorov_g(t, x, v, d=d)
        w = smooth_step(np.asarray(t, dtype=float) / eps)
        return g * w

    def g_perp(t, x, v, d=1):
        g = kolmogorov_g(t, x, v, d=d)
        w = smooth_step(np.asarray(t, dtype=float) / eps)
        return g * (1.0 - w)

    return g_eps, g_perp


def split_kernel_l1(eps, n=4096):
    """Integral of |G_eps| over all of (0, infinity) x R^{2d}, d = 1.

    Since the mass of G(t, ., .) is identically 1 the integral reduces
    to eps * int_0^2 chi; the value sits strictly between eps and
    2 eps and scales linearly in eps.
    """
    s = (np.arange(n) + 0.5) * (2.0 / n)
    return float(eps * np.sum(smooth_step(s)) * (2.0 / n))


def translated_kernel_values(z0, t, x, v, d=1):
    """G evaluated in the frame translated by z0: G(z0^{-1} o z).

    z0 may be a PhasePoint or an (t0, x0, v0) triple.  The translate of
    an exact solution is an exact solution with point source at z0.
    """
    if not isinstance(z0, PhasePoint):
        z0 = PhasePoint(float(z0[0]), np.atleast_1d(np.asarray(z0[1], float)),
                        np.atleast_1d(np.asarray(z0[2], float)))
    inv = inverse(z0)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    tt = inv.t + t
    xx = inv.x[0] + x + t * inv.v[0]
    vv = inv.v[0] + v
    return kolmogorov_g(tt, xx, vv, d=d)


def _slice_quadrature(tau, xg, vg, slab, x, v, dx, dv):
    """Integral of G(tau, x - x' - tau v', v - v') slab(x', v') dx' dv'."""
    V = vg[None, :]
    g = kolmogorov_g(tau, x - xg[:, None] - tau * V, v - V, d=1)
    return float(np.sum(g * slab) * dx * dv)


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
        return out if out.ndim else float(out)

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
    return out if out.ndim else float(out)
