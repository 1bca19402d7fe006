"""Tests for the hashed rough coefficient fields."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfplab.solver.coefficients import (CoefficientField,
                                        constant_coefficients,
                                        make_rough_coefficients,
                                        time_cell_runs)


def _random_points(rng, n=10000, span=50.0):
    return (rng.uniform(-span, span, n), rng.uniform(-span, span, n),
            rng.uniform(-span, span, n))


def test_bounds_hold_in_bulk():
    coef = make_rough_coefficients(seed=42, lam=0.3, Lam=1.7, cell_size=0.2,
                                   s_amp=0.6)
    t, x, v = _random_points(np.random.default_rng(0))
    a = coef.diffusion(t, x, v)
    b = coef.drift(t, x, v)
    s = coef.source(t, x, v)
    assert np.all((0.3 <= a) & (a <= 1.7))
    assert np.all((-1.7 <= b) & (b <= 1.7))
    assert np.all((-0.6 <= s) & (s <= 0.6))
    # the three channels are distinct fields
    assert not np.allclose(a / 1.7, np.abs(b) / 1.7)


def test_determinism_and_seed_sensitivity():
    t, x, v = _random_points(np.random.default_rng(1), n=500)
    a1 = make_rough_coefficients(seed=7).diffusion(t, x, v)
    a2 = make_rough_coefficients(seed=7).diffusion(t, x, v)
    a3 = make_rough_coefficients(seed=8).diffusion(t, x, v)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_piecewise_constant_on_lattice():
    coef = make_rough_coefficients(seed=5, cell_size=0.25)
    # same lattice cell -> identical value
    assert coef.diffusion(0.01, 0.05, 0.2) == coef.diffusion(0.24, 0.24, 0.01)
    assert coef.diffusion(-0.2, 0.0, 0.0) != coef.diffusion(0.2, 0.0, 0.0)
    # negative coordinates fall in their own cells (floor, not trunc)
    assert coef.drift(-0.01, 0.0, 0.0) == coef.drift(-0.24, 0.1, 0.1)


def test_values_do_not_depend_on_evaluation_batch():
    coef = make_rough_coefficients(seed=11, cell_size=0.1)
    single = coef.diffusion(0.3, -1.2, 0.7)
    batch = coef.diffusion(np.array([0.3, 5.0]), np.array([-1.2, 3.0]),
                           np.array([0.7, -2.0]))
    assert batch[0] == single


def test_source_disabled_by_default():
    coef = make_rough_coefficients(seed=3)
    t, x, v = _random_points(np.random.default_rng(2), n=100)
    assert np.all(coef.source(t, x, v) == 0.0)
    assert coef.source_sup == 0.0


def test_constant_field():
    coef = constant_coefficients(1.5, -0.25, 0.1)
    t, x, v = _random_points(np.random.default_rng(3), n=100)
    assert np.all(coef.diffusion(t, x, v) == 1.5)
    assert np.all(coef.drift(t, x, v) == -0.25)
    assert np.all(coef.source(t, x, v) == 0.1)
    assert coef.source_sup == 0.1


def test_mean_of_diffusion_near_midpoint():
    coef = make_rough_coefficients(seed=9, lam=0.0001, Lam=1.0001)
    t, x, v = _random_points(np.random.default_rng(4))
    assert abs(float(np.mean(coef.diffusion(t, x, v))) - 0.5001) < 0.02


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_rough_coefficients(seed=1, lam=0.0)
    with pytest.raises(ValueError):
        make_rough_coefficients(seed=1, lam=2.0, Lam=1.0)
    with pytest.raises(ValueError):
        make_rough_coefficients(seed=1, cell_size=0.0)
    with pytest.raises(ValueError):
        make_rough_coefficients(seed=1, s_amp=-0.1)


def test_describe_serializes_defining_parameters():
    coef = make_rough_coefficients(seed=21, lam=0.4, Lam=2.0, cell_size=0.3,
                                   s_amp=0.05)
    d = coef.describe()
    assert d == {"seed": 21, "lam": 0.4, "Lam": 2.0, "cell_size": 0.3,
                 "s_amp": 0.05, "kind": "rough"}
    rebuilt = CoefficientField(**{**d, "kind": "rough"})
    assert rebuilt.diffusion(0.1, 0.2, 0.3) == coef.diffusion(0.1, 0.2, 0.3)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-100, 100),
       x=st.floats(-100, 100), v=st.floats(-100, 100))
def test_bounds_property(seed, t, x, v):
    coef = make_rough_coefficients(seed=seed, lam=0.5, Lam=2.5, s_amp=1.0)
    assert 0.5 <= float(coef.diffusion(t, x, v)) <= 2.5
    assert -2.5 <= float(coef.drift(t, x, v)) <= 2.5
    assert -1.0 <= float(coef.source(t, x, v)) <= 1.0


@st.composite
def _open_grid(draw):
    """A rough field and (t, x, v) that broadcast from 1-D axes: an open
    (t, x, v) grid, a scalar t over an open (v, x) grid as the solver
    samples, or flat point lists.  Coordinates are negative or on the
    cell edges k * cell_size on some draws."""
    cell = draw(st.sampled_from([0.05, 0.1, 0.25, 1.0 / 3.0]))
    coordinate = st.one_of(st.floats(-8.0, 8.0),
                           st.integers(-80, 80).map(lambda k: k * cell))

    def axis(size):
        return np.array(draw(st.lists(coordinate, min_size=size,
                                      max_size=size)))

    coef = make_rough_coefficients(seed=draw(st.integers(0, 2**32 - 1)),
                                   lam=0.3, Lam=1.7, cell_size=cell,
                                   s_amp=0.6)
    sizes = draw(st.tuples(*[st.integers(1, 7)] * 3))
    t, x, v = (axis(n) for n in sizes)
    layout = draw(st.sampled_from(["open", "scalar_t", "flat"]))
    if layout == "open":
        return coef, (t[:, None, None], x[None, :, None], v[None, None, :])
    if layout == "scalar_t":
        return coef, (float(t[0]), x[None, :], v[:, None])
    n = min(sizes)
    return coef, (t[:n], x[:n], v[:n])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_open_grid())
def test_open_grids_match_full_arrays_bitwise(case):
    coef, (t, x, v) = case
    full = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float),
                               np.asarray(v, float))
    for field in (coef.diffusion, coef.drift, coef.source):
        got, ref = field(t, x, v), field(*full)
        assert np.shape(got) == np.shape(ref) == full[0].shape
        assert np.array_equal(got, ref)


class _PerTime:
    """A field whose every time is its own time cell."""

    def time_cell(self, t):
        return t


def test_time_cell_runs_group_consecutive_times_of_one_cell():
    lattice = make_rough_coefficients(1, cell_size=0.05)
    assert time_cell_runs(lattice, []) == []
    assert time_cell_runs(_PerTime(), []) == []
    # 25 slices 0.0125 apart, off the cell edges: four to a 0.05 cell
    times = 0.003 + 0.0125 * np.arange(25)
    assert time_cell_runs(lattice, times) == [
        (0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24), (24, 25)]
    assert time_cell_runs(_PerTime(), times) == [(k, k + 1)
                                                 for k in range(25)]
    # equal times are one run; a cell entered again is a new run
    assert time_cell_runs(_PerTime(), [0.5, 0.5, 1.0, 0.5]) == [
        (0, 2), (2, 3), (3, 4)]


def test_time_cell_runs_compare_infinite_keys_without_warning():
    # 1 / cell_size overflows, so every nonzero time's key is -inf or
    # inf, and inf - inf would be nan with a RuntimeWarning
    coef = make_rough_coefficients(1, cell_size=1e-310)
    times = np.array([-1.0, -0.5, 0.5, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(coef.time_cell(times),
                              [-np.inf, -np.inf, np.inf, np.inf, np.inf])
        assert time_cell_runs(coef, times) == [(0, 2), (2, 5)]
