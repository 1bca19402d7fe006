"""Tests for the fundamental kernel: values, gradients, mass, residual,
splitting, and the convolution representation."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfplab import geometry as geo
from kfplab import kernel as K


def test_value_oracle_at_unit_time():
    # closed form (3 / (4 pi^2))^{1/2} at the origin, t = 1
    assert K.kolmogorov_g(1.0, 0.0, 0.0) == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi**2)), rel=1e-14)
    assert K.kolmogorov_g(1.0, 0.0, 0.0) == pytest.approx(0.27566444771089604,
                                                          rel=1e-13)


def test_kernel_is_one_dimensional():
    with pytest.raises(NotImplementedError):
        K.kolmogorov_g(1.0, 0.0, 0.0, d=2)


def test_zero_for_nonpositive_time():
    assert K.kolmogorov_g(0.0, 0.2, 0.1) == 0.0
    assert K.kolmogorov_g(-1.0, 0.2, 0.1) == 0.0
    arr = K.kolmogorov_g(np.array([-0.5, 0.0, 0.5]), 0.0, 0.0)
    assert arr[0] == 0.0 and arr[1] == 0.0 and arr[2] > 0.0


def test_underflow_is_exact_zero():
    # exponent far below the exp floor must give exact 0, not subnormal
    assert K.kolmogorov_g(0.1, 50.0, 0.0) == 0.0
    assert K.kolmogorov_g(1e-3, 1.0, 0.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(t=st.floats(0.01, 50.0), x=st.floats(-20.0, 20.0),
       v=st.floats(-10.0, 10.0))
def test_velocity_reflection_symmetry(t, x, v):
    assert K.kolmogorov_g(t, -x, -v) == K.kolmogorov_g(t, x, v)


@settings(max_examples=100, deadline=None)
@given(t=st.floats(-10.0, 0.0), x=st.floats(-5.0, 5.0), v=st.floats(-5.0, 5.0))
def test_never_negative_times(t, x, v):
    assert K.kolmogorov_g(t, x, v) == 0.0


def test_mass_is_one_at_all_scales():
    tic = time.time()
    for t in (0.01, 1.0, 100.0):
        assert abs(K.kernel_mass(t) - 1.0) <= 1e-6
    assert time.time() - tic < 10.0


def test_mass_rejects_insufficient_domain():
    # no quadrature domain holds the point mass at t = 0
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t > 0"):
            K.kernel_mass(t)


def test_pde_residual_second_order():
    r1 = K.kernel_pde_residual(0.02)
    r2 = K.kernel_pde_residual(0.01)
    assert r2 <= 1e-2
    assert 3.2 <= r1 / r2 <= 4.8


def test_pde_residual_rejects_wrong_kernel():
    r_true = K.kernel_pde_residual(0.01)
    r_wrong = K.kernel_pde_residual(0.01, kernel=K.detuned_kernel)
    assert r_wrong >= 0.1
    assert r_wrong >= 10.0 * r_true


def test_pde_residual_region_guard():
    # the lattice starts at t = 0.5: a step reaching t <= 0 is refused
    for h in (0.5, 0.7):
        with pytest.raises(ValueError, match="t0 > h"):
            K.kernel_pde_residual(h)
    assert K.kernel_pde_residual(0.49) > 0.0


def test_semigroup_identity():
    rng = np.random.default_rng(7)
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(10)]
    assert K.semigroup_defect(1.0, 0.5, pts) <= 1e-4


def test_smooth_step_plateaus_and_monotone():
    s = np.linspace(-1.0, 3.0, 401)
    w = K.smooth_step(s)
    assert np.all(w[s <= 1.0] == 1.0)
    assert np.all(w[s >= 2.0] == 0.0)
    assert np.all(np.diff(w) <= 1e-15)
    assert np.all((0.0 <= w) & (w <= 1.0))


@pytest.mark.parametrize("eps", [0.4, 0.1, 0.025])
def test_split_l1_scales_linearly(eps):
    l1 = K.split_kernel_l1(eps)
    assert eps < l1 < 2.0 * eps
    # the transition profile integrates to 1.5 exactly by its symmetry
    assert l1 == pytest.approx(1.5 * eps, rel=1e-6)
    # in particular l1 / sqrt(eps) stays bounded as eps shrinks
    assert l1 / math.sqrt(eps) <= 1.0


def _point_mass_source(w, nx=48):
    half = 4.0 * w
    xs = np.linspace(-half, half, nx, endpoint=False) + half / nx
    vs = xs.copy()
    dx = xs[1] - xs[0]
    X, V = np.meshgrid(xs, vs, indexing="ij")
    vals = np.exp(-(X**2 + V**2) / (2 * w * w))
    vals /= vals.sum() * dx * dx
    return ([0.0], xs, vs, vals[None, :, :])


def test_convolution_of_point_mass_approaches_kernel():
    targets = ([1.0, 1.0, 1.0], [0.3, 0.0, -0.8], [-0.5, 0.0, 0.9])
    errs = []
    for w in (0.2, 0.1, 0.05):
        got = K.convolve_representation(_point_mass_source(w), targets)
        ref = K.kolmogorov_g(np.asarray(targets[0]), np.asarray(targets[1]),
                             np.asarray(targets[2]))
        errs.append(float(np.max(np.abs(got - ref))))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 5e-3


def test_convolution_before_support_is_zero():
    src = _point_mass_source(0.1)
    out = K.convolve_representation(src, ([-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]))
    assert out[0] == 0.0 and out[1] == 0.0


def test_convolution_galilean_covariance():
    xs = np.linspace(-2, 2, 64, endpoint=False) + 2 / 64
    vs = xs.copy()
    vals = (np.exp(-(xs[:, None]**2 + vs[None, :]**2))
            * (1 + 0.3 * np.sin(3 * xs[:, None])))
    base_src = ([0.0], xs, vs, vals[None])
    t0, x0, v0 = 0.7, 0.4, -0.6
    pts = [(1.1, 0.2, 0.3), (0.9, -0.5, 0.1)]
    base = K.convolve_representation(
        base_src, ([p[0] for p in pts], [p[1] for p in pts],
                   [p[2] for p in pts]))
    # translating a t' = 0 slice by (t0, x0, v0) shifts its axes rigidly
    moved_src = ([t0], xs + x0, vs + v0, vals[None])
    moved_pts = [geo.compose(geo.PhasePoint(t0, x0, v0),
                             geo.PhasePoint(p[0], p[1], p[2]))
                 for p in pts]
    moved = K.convolve_representation(
        moved_src, ([z.t for z in moved_pts], [z.x for z in moved_pts],
                    [z.v for z in moved_pts]))
    assert np.max(np.abs(base - moved)) <= 1e-6


def test_convolution_linear_source_exact():
    a, b = 0.4, 0.25
    nt, nx, nv = 81, 480, 160
    times = np.linspace(0, 2.0, nt)
    xs = np.linspace(-24, 24, nx, endpoint=False) + 24 / nx
    vs = np.linspace(-14, 14, nv, endpoint=False) + 14 / nv
    vals = (a + b * times)[:, None, None] * np.ones((nt, nx, nv))
    src = (times, xs, vs, vals)
    t_lo = times[0] - (times[1] - times[0]) / 2
    T = 2.0
    exact = a * (T - t_lo) + b * (T**2 - t_lo**2) / 2
    out = K.convolve_representation(src, ([T], [0.0], [0.0]))
    assert out[0] == pytest.approx(exact, rel=1e-5)
    # horizon shorter than the resolution cutoff: flat-source tail only
    short_T = t_lo + 0.3
    exact_short = a * 0.3 + b * (short_T**2 - t_lo**2) / 2
    out_short = K.convolve_representation(src, ([short_T], [0.0], [0.0]))
    assert out_short[0] == pytest.approx(exact_short, rel=1e-12)


def test_convolution_rejects_bad_shape():
    with pytest.raises(ValueError):
        K.convolve_representation(([0.0], [0.0, 1.0], [0.0],
                                   np.zeros((1, 3, 1))), ([1.0], [0], [0]))


def test_translated_kernel_matches_group_action():
    z0 = geo.PhasePoint(0.5, 0.3, -0.7)
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = geo.PhasePoint(rng.uniform(0.1, 2.0), rng.uniform(-2, 2),
                           rng.uniform(-2, 2))
        z = geo.compose(z0, w)
        got = K.translated_kernel_values(z0, z.t, z.x, z.v)
        ref = K.kolmogorov_g(w.t, w.x, w.v)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)


def _on_full_arrays(kernel, t, x, v):
    """kernel on the broadcast full arrays of (t, x, v)."""
    return kernel(*np.broadcast_arrays(np.asarray(t, float),
                                       np.asarray(x, float),
                                       np.asarray(v, float)))


@pytest.mark.parametrize("kernel", [K.kolmogorov_g, K.detuned_kernel])
def test_open_grids_match_full_arrays_bitwise(kernel):
    rng = np.random.default_rng(17)
    # t <= 0 entries, and small times whose exponent passes EXP_FLOOR
    t = np.concatenate([[-0.5, 0.0, 1e-3, 2e-3],
                        10.0 ** rng.uniform(-2.0, 1.5, 12)])
    x = rng.uniform(-6.0, 6.0, 96)
    v = rng.uniform(-5.0, 5.0, 80)
    got = kernel(t[:, None, None], x[None, :, None], v[None, None, :])
    ref = _on_full_arrays(kernel, t[:, None, None], x[None, :, None],
                          v[None, None, :])
    assert got.shape == (t.size, x.size, v.size)
    assert np.array_equal(got, ref)
    assert np.all(got[:2] == 0.0)
    # exponents below EXP_FLOOR give exact zeros beside positive values
    assert np.any(got[2:] == 0.0) and np.any(got[2:] > 0.0)
    # a scalar time over an open (x, v) grid, as the slice quadrature
    # calls it: the t-only factors are 0-d there
    for tau in np.concatenate([t, rng.uniform(0.01, 3.0, 40)]):
        got = kernel(tau, x[:, None], v[None, :])
        assert np.array_equal(got, _on_full_arrays(kernel, tau, x[:, None],
                                                   v[None, :]))
    # 0-d inputs still return a Python float
    for args in [(0.7, 0.2, -0.4), (np.float64(0.7), np.asarray(0.2), -0.4),
                 (np.asarray(-1.0), 0.0, 0.0)]:
        got = kernel(*args)
        assert type(got) is float
        assert got == _on_full_arrays(kernel, *args)


def _literal_kernel(t, x, v, v_divisor):
    """The kernel formula with one fresh array per stage, as
    kfplab.kernel evaluated it before its stages moved into the output
    array: the bitwise reference for the in-place evaluation."""
    t, x, v = np.asarray(t, float), np.asarray(x, float), np.asarray(v, float)
    u = x - 0.5 * t * v
    uu, vv = u * u, v * v
    pos = t > 0.0
    ts = np.where(pos, t, 1.0)
    expo = -3.0 * uu / ts**3 - vv / (v_divisor * ts)
    keep = pos & (expo >= K.EXP_FLOOR)
    pref = (3.0 / (4.0 * math.pi**2)) ** 0.5 * ts ** -2.0
    out = np.where(keep, pref * np.exp(np.where(keep, expo, 0.0)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _assert_bitwise(got, ref):
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)
    # the same bits, signed zeros included
    assert np.array_equal(np.asarray(got).view(np.uint64),
                          np.asarray(ref).view(np.uint64))


def _floor_crossing_x(t, v, v_divisor, steps=64):
    """x values whose exponent at (t, v) steps across EXP_FLOOR ulp by
    ulp, from the exact crossing of the literal formula outward."""
    vterm = v * v / (v_divisor * t)
    x0 = math.sqrt((-K.EXP_FLOOR - vterm) * t**3 / 3.0) + 0.5 * t * v
    return x0 + np.arange(-steps, steps + 1) * math.ulp(x0)


@pytest.mark.parametrize("kernel, v_divisor", [(K.kolmogorov_g, 4.0),
                                               (K.detuned_kernel, 2.0)])
def test_in_place_kernel_equals_literal_formula_bitwise(kernel, v_divisor):
    rng = np.random.default_rng(23)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5])
    ts = np.array([-1.0, -0.0, 0.0, 1e-300, 1e-3, 0.05, 0.7, 3.0, np.inf,
                   np.nan])
    cases = [
        # t <= 0, and NaN and +-inf in x and v, on a full 3-D broadcast
        (ts[:, None, None], special[None, :, None], special[None, None, :]),
        # full-size t, x and v
        tuple(np.broadcast_arrays(ts[:, None], special[None, :],
                                  special[::-1][None, :])),
        # a scalar t over open (x, v) grids, as the slice quadrature calls
        # it, plus the quadrature's own argument shapes
        (0.37, rng.uniform(-3.0, 3.0, 256)[:, None],
         rng.uniform(-3.0, 3.0, 128)[None, :]),
        (np.float64(0.37), 0.2 - rng.uniform(-3.0, 3.0, 64)[:, None]
         - 0.37 * np.linspace(-2.5, 2.5, 48)[None, :],
         0.1 - np.linspace(-2.5, 2.5, 48)[None, :]),
        (-0.2, rng.uniform(-3.0, 3.0, 16)[:, None], special[None, :]),
        # 0-d input of every kind
        (0.7, 0.2, -0.4),
        (np.asarray(0.7), np.float64(0.2), np.asarray(-0.4)),
        (-1.0, 0.0, 0.0),
        (0.5, np.nan, 0.0),
        (0.5, 0.0, np.inf),
    ]
    # exponents on both sides of EXP_FLOOR, ulp by ulp
    for t, v in [(1.0, 0.0), (0.3, 1.1), (2.0, -3.0)]:
        x = _floor_crossing_x(t, v, v_divisor)
        cases.append((t, x, v))
        with np.errstate(all="ignore"):
            vals = _literal_kernel(t, x, v, v_divisor)
        assert np.any(vals == 0.0) and np.any(vals > 0.0)
    for t, x, v in cases:
        with np.errstate(all="ignore"):
            ref = _literal_kernel(t, x, v, v_divisor)
            got = kernel(t, x, v)
        _assert_bitwise(got, ref)


def test_quadratures_equal_literal_kernel_bitwise(monkeypatch):
    rng = np.random.default_rng(5)
    xs = np.linspace(-2.0, 2.0, 64, endpoint=False) + 2.0 / 64
    vs = np.linspace(-2.5, 2.5, 48, endpoint=False) + 2.5 / 48
    slab = rng.uniform(0.0, 1.0, (xs.size, vs.size))
    dx, dv = xs[1] - xs[0], vs[1] - vs[0]
    for tau, x, v in [(0.4, 0.1, -0.2), (0.02, -0.5, 0.3), (1.5, 0.0, 0.0)]:
        got = K._slice_quadrature(tau, xs, vs, slab, x, v, dx, dv)
        V = vs[None, :]
        g = _literal_kernel(tau, x - xs[:, None] - tau * V, v - V, 4.0)
        assert got == float(np.sum(g * slab) * dx * dv)
    pts = [(0.3, -0.2), (-1.0, 0.8)]
    got = (K.semigroup_defect(1.0, 0.5, pts), K.kernel_mass(0.3))
    monkeypatch.setattr(K, "_kernel", _literal_kernel)
    assert got == (K.semigroup_defect(1.0, 0.5, pts), K.kernel_mass(0.3))


def test_slice_quadrature_allocates_one_result_array():
    # the oracle's slice grid; only the kernel's argument and its output
    # (plus a boolean mask) may be live at once, not one array per stage
    xs = np.linspace(-3.0, 3.0, 256, endpoint=False) + 3.0 / 256
    vs = np.linspace(-3.5, 3.5, 128, endpoint=False) + 3.5 / 128
    X, V = np.meshgrid(xs, vs, indexing="ij")
    slab = np.exp(-(X**2 + V**2) / 0.18)
    args = (0.2, xs, vs, slab, 0.1, -0.3, xs[1] - xs[0], vs[1] - vs[0])
    assert K._slice_quadrature(*args) > 0.0
    tracemalloc.start()
    try:
        K._slice_quadrature(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * slab.nbytes


def _meshgrid_slice_quadrature(tau, xg, vg, slab, x, v, dx, dv):
    """Reference for kernel._slice_quadrature: the kernel on full
    meshgrid arrays, one evaluation point at a time."""
    X, V = np.meshgrid(xg, vg, indexing="ij")
    g = _on_full_arrays(K.kolmogorov_g, tau, x - X - tau * V, v - V)
    return float(np.sum(g * slab) * dx * dv)


def _space_time_source():
    times = -0.4 + 0.05 * np.arange(8)
    xs = np.linspace(-1.5, 1.5, 24, endpoint=False) + 1.5 / 24
    vs = np.linspace(-1.5, 1.5, 20, endpoint=False) + 1.5 / 20
    T, X, V = np.meshgrid(times, xs, vs, indexing="ij")
    vals = np.exp(-((T + 0.2) / 0.1) ** 2 - X**2 - 2.0 * V**2) * np.cos(X)
    return (times, xs, vs, vals)


@pytest.mark.parametrize("source, points", [
    (_point_mass_source(0.1),
     ([1.0, 0.3, 0.05, -0.5, 2.0], [0.0, 0.4, -0.2, 0.0, 1.5],
      [0.0, -0.3, 0.1, 0.0, -1.0])),
    (_space_time_source(),
     ([0.0, 0.2, -0.1, -0.42, -0.39], [0.0, 0.5, -0.7, 0.0, 0.1],
      [0.0, -0.2, 0.4, 0.0, 0.3])),
])
def test_convolution_matches_meshgrid_reference_bitwise(source, points,
                                                        monkeypatch):
    got = K.convolve_representation(source, points)
    monkeypatch.setattr(K, "_slice_quadrature", _meshgrid_slice_quadrature)
    ref = K.convolve_representation(source, points)
    assert np.array_equal(got, ref)
    assert np.count_nonzero(got) >= 3
