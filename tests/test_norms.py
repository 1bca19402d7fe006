"""Cylinder norms, level-set measures, and seminorms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfplab.estimates import (
    band_fraction,
    cylinder_average,
    gagliardo_x_seminorm,
    grad_v_l1,
    inf_on,
    level_set_fraction,
    lp_norm,
    source_l2,
    source_sup,
    sup_on,
)
from kfplab.geometry import make_cylinder
from kfplab.solver.coefficients import (
    constant_coefficients,
    make_rough_coefficients,
)
from kfplab.solver.grid import (
    InsufficientResolutionError,
    SafeRegionError,
    centered_axis,
    sample_function,
    velocity_gradient,
)

ORIGIN = (0.0, 0.0, 0.0)


def _grid(fn, nt, t_len, nx, x_half, nv, v_half):
    """Uniform grid whose last stored slice sits exactly at t = 0."""
    dt = t_len / nt
    times = dt * (np.arange(nt) + 1.0 - nt)
    xs = centered_axis(-x_half, x_half, nx)
    vs = centered_axis(-v_half, v_half, nv)
    return sample_function(fn, times, xs, vs, 0.0, 0.0, {})


def _unit_cyl(r=0.6):
    return make_cylinder("centered", ORIGIN, r)


def _full_mask(f, cyl):
    """Membership of every cell center of f, by brute force."""
    T, X, V = np.meshgrid(f.times, f.xs, f.vs, indexing="ij")
    return cyl.contains(T, X, V)


# ------------------------------------------------------------- lp norms


def test_lp_norm_constant_field():
    f = _grid(lambda t, x, v: -1.5 + 0.0 * t, 30, 0.8, 40, 0.5, 40, 0.8)
    cyl = _unit_cyl(0.6)
    n_cells = int(f.mask(cyl).sum())
    vol = n_cells * f.cell_measure
    for p in (1.0, 2.0, 2.5):
        assert lp_norm(f, cyl, p) == pytest.approx(1.5 * vol ** (1.0 / p),
                                                   rel=1e-12)
    assert lp_norm(f, cyl, math.inf) == 1.5


def test_lp_norm_matches_analytic_integral():
    # f = v on the centered cylinder: ||f||_2^2 = r^2 * 2 r^3 * (2 r^3 / 3)
    r = 0.6
    f = _grid(lambda t, x, v: v + 0.0 * t, 60, 0.4, 60, 0.25, 120, 0.7)
    exact = (r**2 * 2.0 * r**3 * (2.0 * r**3 / 3.0)) ** 0.5
    # window boundaries fall inside cells: a few percent of quadrature slack
    assert lp_norm(f, _unit_cyl(r), 2.0) == pytest.approx(exact, rel=0.03)


def test_lp_norm_indicator_half_volume():
    r = 0.6
    f = _grid(lambda t, x, v: 1.0 * (v > 0.0), 60, 0.4, 60, 0.25, 120, 0.7)
    cyl = _unit_cyl(r)
    assert lp_norm(f, cyl, 1.0) == pytest.approx(cyl.volume() / 2.0, rel=0.02)


def test_lp_norm_nested_monotone():
    rng = np.random.default_rng(3)
    f = _grid(lambda t, x, v: np.sin(3 * t) * np.cos(2 * x) + v,
              40, 0.5, 50, 0.3, 60, 0.8)
    small = _unit_cyl(0.35)
    big = _unit_cyl(0.65)
    for p in (1.0, 2.0):
        assert lp_norm(f, small, p) <= lp_norm(f, big, p) + 1e-15


def test_lp_norm_rejects_bad_p():
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.5, 10, 0.3, 10, 0.6)
    with pytest.raises(ValueError):
        lp_norm(f, _unit_cyl(0.5), 0.0)
    with pytest.raises(ValueError):
        lp_norm(f, _unit_cyl(0.5), -2.0)


def test_uncovered_cylinder_rejected():
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.5, 10, 0.3, 10, 0.6)
    with pytest.raises(SafeRegionError):
        lp_norm(f, _unit_cyl(2.0), 2.0)


def test_empty_cylinder_rejected():
    # covered by the box but finer than the grid
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.5, 10, 0.3, 10, 0.6)
    tiny = make_cylinder("centered", (-0.2, 0.11, 0.13), 1e-3)
    with pytest.raises(InsufficientResolutionError):
        lp_norm(f, tiny, 2.0)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-10.0, 10.0), p=st.floats(0.5, 4.0))
def test_lp_norm_constant_property(c, p):
    f = _grid(lambda t, x, v: c + 0.0 * t, 8, 0.5, 12, 0.3, 12, 0.6)
    cyl = _unit_cyl(0.5)
    vol = int(f.mask(cyl).sum()) * f.cell_measure
    assert lp_norm(f, cyl, p) == pytest.approx(abs(c) * vol ** (1.0 / p),
                                               rel=1e-10, abs=1e-12)


# ------------------------------------------------- level sets and bands


def test_level_set_fraction_symmetric():
    # even cell count in the v window, none at v = 0: exactly half below
    f = _grid(lambda t, x, v: v + 0.0 * t, 30, 0.4, 40, 0.25, 80, 0.7)
    cyl = _unit_cyl(0.6)
    assert level_set_fraction(f, cyl, "le", 0.0) == 0.5
    assert level_set_fraction(f, cyl, "gt", 0.0) == 0.5
    assert level_set_fraction(f, cyl, "ge", -1.0) == 1.0
    assert level_set_fraction(f, cyl, "lt", -1.0) == 0.0


def test_level_set_fraction_analytic():
    # {v <= a} inside |v| <= r has measure fraction (a + r) / (2 r)
    r, a = 0.6, 0.2
    f = _grid(lambda t, x, v: v + 0.0 * t, 30, 0.4, 40, 0.25, 300, 0.7)
    frac = level_set_fraction(f, _unit_cyl(r), "le", a)
    assert frac == pytest.approx((a + r) / (2 * r), abs=0.01)


def test_level_set_fraction_rejects_relation():
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.4, 10, 0.25, 10, 0.7)
    with pytest.raises(ValueError):
        level_set_fraction(f, _unit_cyl(0.5), "eq", 0.0)


def test_band_fraction_strict():
    f = _grid(lambda t, x, v: v + 0.0 * t, 20, 0.4, 20, 0.25, 80, 0.7)
    cyl = _unit_cyl(0.6)
    full = band_fraction(f, cyl, -1.0, 1.0)
    assert full == 1.0
    # strict endpoints: band excluding everything
    assert band_fraction(f, cyl, 2.0, 3.0) == 0.0
    lo = float(f.vs[np.abs(f.vs) <= 0.6].min())
    hi = float(f.vs[np.abs(f.vs) <= 0.6].max())
    inner = band_fraction(f, cyl, lo, hi)
    assert inner < 1.0  # the boundary cells themselves are excluded


def test_cylinder_average_odd_function():
    f = _grid(lambda t, x, v: v**3 + 0.0 * t, 30, 0.4, 40, 0.25, 80, 0.7)
    assert cylinder_average(f, _unit_cyl(0.6)) == pytest.approx(0.0, abs=1e-12)


def test_sup_inf_on():
    f = _grid(lambda t, x, v: v + 0.0 * t, 20, 0.4, 20, 0.25, 80, 0.7)
    cyl = _unit_cyl(0.6)
    in_window = f.vs[np.abs(f.vs) <= 0.6]
    assert sup_on(f, cyl) == float(in_window.max())
    assert inf_on(f, cyl) == float(in_window.min())


# ------------------------------------------------------------ gradients


def test_velocity_gradient_linear_exact():
    vs = centered_axis(-1.0, 1.0, 30)
    vals = np.broadcast_to(vs, (4, 5, 30)).copy()
    g = velocity_gradient(vals, vs[1] - vs[0])
    assert np.max(np.abs(g - 1.0)) < 1e-12


def test_velocity_gradient_into_buffer_bitwise_equals_allocating_form():
    # the literal centred and one-sided quotients, written to a caller's
    # buffer that is returned, leaving the input untouched
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((3, 4, 9))
    kept = vals.copy()
    dv = 0.37
    literal = np.empty_like(vals)
    literal[..., 1:-1] = (vals[..., 2:] - vals[..., :-2]) / (2.0 * dv)
    literal[..., 0] = (vals[..., 1] - vals[..., 0]) / dv
    literal[..., -1] = (vals[..., -1] - vals[..., -2]) / dv
    buf = np.full_like(vals, np.nan)
    assert velocity_gradient(vals, dv, out=buf) is buf
    assert (buf.tobytes() == velocity_gradient(vals, dv).tobytes()
            == literal.tobytes())
    assert vals.tobytes() == kept.tobytes()


def test_velocity_gradient_buffer_contents_raise_no_warning():
    # the whole buffer is divided at once: stale huge values in the wall
    # columns must not overflow before they are overwritten
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((3, 4, 9))
    buf = np.full_like(vals, 1e308)
    with np.errstate(all="raise"):
        velocity_gradient(vals, 1e-3, out=buf)
    assert buf.tobytes() == velocity_gradient(vals, 1e-3).tobytes()


def test_grad_v_l1_linear():
    f = _grid(lambda t, x, v: v + 0.0 * t, 20, 0.4, 20, 0.25, 60, 0.7)
    cyl = _unit_cyl(0.6)
    n_cells = int(f.mask(cyl).sum())
    assert grad_v_l1(f, cyl) == pytest.approx(n_cells * f.cell_measure,
                                              rel=1e-12)


# -------------------------------------------------- fractional seminorm


def test_gagliardo_rejects_sigma():
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.4, 10, 0.25, 10, 0.7)
    for sigma in (0.0, 1.0 / 3.0, 0.5):
        with pytest.raises(ValueError):
            gagliardo_x_seminorm(f, _unit_cyl(0.5), sigma)


def test_gagliardo_constant_is_zero():
    f = _grid(lambda t, x, v: 4.0 + 0.0 * t, 20, 0.4, 30, 0.25, 20, 0.7)
    assert gagliardo_x_seminorm(f, _unit_cyl(0.6), 0.25) == 0.0


def test_gagliardo_mirror_small_grid():
    # independent double-loop evaluation on a coarse grid
    sigma = 0.2
    f = _grid(lambda t, x, v: np.sin(2 * x) + 0.1 * v + 0.0 * t,
              8, 0.45, 12, 0.3, 8, 0.8)
    cyl = _unit_cyl(0.62)
    got = gagliardo_x_seminorm(f, cyl, sigma)
    mask = _full_mask(f, cyl)
    total = 0.0
    for it in range(f.times.size):
        x_idx = np.nonzero(mask[it].any(axis=1))[0]
        v_idx = np.nonzero(mask[it].any(axis=0))[0]
        for iv in v_idx:
            for i in x_idx:
                for j in x_idx:
                    if i == j:
                        continue
                    gap = abs(f.xs[i] - f.xs[j])
                    total += (abs(f.values[it, i, iv]
                                  - f.values[it, j, iv]) / gap ** (1 + sigma))
    total *= f.dx * f.dx * f.dv * f.dt
    assert got == pytest.approx(total, rel=1e-12)


def test_gagliardo_linear_profile_oracle():
    # f = x, sigma = 1/4, cylinder radius 2^(-1/3) so the x window has
    # length 1: the continuum seminorm is 32/21.  The discrete pair sum
    # omits the near-diagonal band, a strict underestimate of a few
    # percent at this resolution.
    r = 2.0 ** (-1.0 / 3.0)
    f = _grid(lambda t, x, v: x + 0.0 * t, 50, 0.7, 110, 0.55, 68, 0.85)
    got = gagliardo_x_seminorm(f, _unit_cyl(r), 0.25)
    exact = 32.0 / 21.0
    assert 0.88 < got / exact < 1.0


def test_gagliardo_translation_invariant():
    shift = 0.17
    f0 = _grid(lambda t, x, v: np.cos(3 * x) + 0.0 * t, 20, 0.4, 60, 0.4,
               20, 0.8)
    dt = 0.4 / 20
    times = dt * (np.arange(20) + 1.0 - 20)
    xs = centered_axis(-0.4 + shift, 0.4 + shift, 60)
    vs = centered_axis(-0.8, 0.8, 20)
    f1 = sample_function(lambda t, x, v: np.cos(3 * (x - shift)) + 0.0 * t,
                         times, xs, vs, 0.0, 0.0, {})
    c0 = make_cylinder("centered", ORIGIN, 0.6)
    c1 = make_cylinder("centered", (0.0, shift, 0.0), 0.6)
    a = gagliardo_x_seminorm(f0, c0, 0.25)
    b = gagliardo_x_seminorm(f1, c1, 0.25)
    assert a == pytest.approx(b, rel=1e-9)


def test_gagliardo_needs_four_columns():
    f = _grid(lambda t, x, v: x + 0.0 * t, 10, 0.4, 8, 0.6, 10, 0.8)
    # x window of radius 0.55 cylinder is +-0.166, dx = 0.15: 2 columns
    with pytest.raises(InsufficientResolutionError):
        gagliardo_x_seminorm(f, _unit_cyl(0.55), 0.25)


# --------------------------------------------------------- source terms


def test_source_sup_constant():
    coef = constant_coefficients(1.0, 0.0, -0.7)
    assert source_sup(coef, _unit_cyl(0.5)) == 0.7


def test_source_sup_rough_bounded():
    coef = make_rough_coefficients(11, s_amp=0.4, cell_size=0.03)
    got = source_sup(coef, _unit_cyl(0.5))
    assert 0.2 <= got <= 0.4


def test_source_l2_constant():
    f = _grid(lambda t, x, v: 0.0 * t, 20, 0.4, 20, 0.25, 40, 0.7)
    coef = constant_coefficients(1.0, 0.0, 0.3)
    cyl = _unit_cyl(0.6)
    vol = int(f.mask(cyl).sum()) * f.cell_measure
    assert source_l2(coef, f, cyl) == pytest.approx(0.3 * vol**0.5, rel=1e-12)


def test_source_l2_zero_source():
    f = _grid(lambda t, x, v: 0.0 * t, 10, 0.4, 10, 0.25, 10, 0.7)
    coef = make_rough_coefficients(5)
    assert source_l2(coef, f, _unit_cyl(0.5)) == 0.0
