"""Tests for the marching scheme and the grid function container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfplab import geometry as geo
from kfplab.calibration import grid_tolerance
from kfplab.experiments import (STANDARD_CONFIG, harnack_edge_axes,
                                harnack_observation_axes)
from kfplab.solver import march
from kfplab.solver.coefficients import (constant_coefficients,
                                        make_rough_coefficients)
from kfplab.solver.grid import (Box, GridFunction, SafeRegionError,
                                centered_axis, load_grid_function,
                                sample_function)
from kfplab.solver.march import (CFLViolationError, SolverDivergenceError,
                                 solve, transport_weights)

BOX = Box(0.0, 0.5, -2.0, 2.0, -2.0, 2.0)


def test_constant_state_is_invariant_with_rough_coefficients():
    coef = make_rough_coefficients(seed=4, lam=0.2, Lam=1.0, cell_size=0.15)
    gf = solve(lambda x, v: 0.8 + 0 * x * v, coef, BOX, nx=64, nv=48, nt=40)
    assert np.max(np.abs(gf.values - 0.8)) < 1e-12


def test_exact_linear_growth_from_constant_source():
    coef = constant_coefficients(1.0, 0.0, 0.3)
    gf = solve(lambda x, v: 0.0 * x * v, coef, BOX, nx=64, nv=48, nt=40)
    for i, t in enumerate(gf.times):
        assert np.max(np.abs(gf.values[i] - 0.3 * t)) < 1e-12


class _NoDrift:
    """Rough diffusion, zero drift and source: mass must be conserved.
    Each time is its own time cell, so solve samples it every step."""

    def __init__(self, base):
        self.base = base

    def time_cell(self, t):
        return t

    def diffusion(self, t, x, v):
        return self.base.diffusion(t, x, v)

    def drift(self, t, x, v):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(x),
                                     np.asarray(v)).shape)

    source = drift

    def describe(self):
        return {"kind": "no-drift-wrapper", **self.base.describe()}


def test_mass_conserved_without_drift():
    coef = _NoDrift(make_rough_coefficients(seed=6, lam=0.2, Lam=1.0,
                                            cell_size=0.2))
    f0 = lambda x, v: np.exp(-2 * (x * x + v * v))
    gf = solve(f0, coef, BOX, nx=96, nv=64, nt=60)
    masses = gf.values.sum(axis=(1, 2))
    assert np.max(np.abs(masses - masses[0])) < 1e-10 * masses[0]


def test_transport_weights_partition_of_unity():
    vs = np.linspace(-3, 3, 17)
    k, weights = transport_weights(vs, 0.013, 0.05)
    total = weights[0] + weights[1] + weights[2] + weights[3]
    assert np.max(np.abs(total - 1.0)) < 1e-15
    # integer shifts collapse to a pure permutation
    k0, w0 = transport_weights(np.array([2.0]), 0.1, 0.05)
    assert k0[0] == 4
    assert w0[0][0] == 0.0 and w0[1][0] == 0.0 and w0[3][0] == 0.0
    assert w0[2][0] == 1.0


def test_cfl_guard():
    coef = constant_coefficients(1.0, 0.0, 0.0)
    fast = Box(0.0, 1.0, -1.0, 1.0, -30.0, 30.0)
    with pytest.raises(CFLViolationError) as err:
        solve(lambda x, v: 0 * x * v, coef, fast, nx=32, nv=16, nt=10)
    payload = err.value.payload
    assert payload["error"] == "cfl_violation"
    assert payload["cfl"] > payload["cfl_limit"]


def _nan_datum(x, v):
    f = np.zeros(np.broadcast(x, v).shape)
    f[5, 5] = np.nan
    return f


def test_divergence_detection_reports_step():
    coef = constant_coefficients(1.0, 0.0, 0.0)
    with pytest.raises(SolverDivergenceError) as err:
        solve(_nan_datum, coef, BOX, nx=32, nv=16, nt=30)
    # finiteness is checked every 25 steps and at the last one
    assert err.value.step == 25


def _numpy_march(monkeypatch):
    """solve marches with the numpy reference kernels, as on a host
    where the compiled ones cannot be built."""
    monkeypatch.setattr(march, "_march_kernels",
                        lambda: (march._transport, march._v_solver))


# the overflowing march warns on the numpy path
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("f0, coef", [
    (_nan_datum, constant_coefficients(1.0, 0.0, 0.0)),
    (lambda x, v: np.exp(-x * x - v * v),
     make_rough_coefficients(seed=1, lam=0.2, Lam=1e200, cell_size=0.1,
                             s_amp=0.1)),
], ids=["nan-datum", "overflow"])
def test_both_kernels_report_the_same_divergence_step(f0, coef,
                                                      monkeypatch):
    steps = []
    for numpy_kernels in (False, True):
        if numpy_kernels:
            _numpy_march(monkeypatch)
        with pytest.raises(SolverDivergenceError) as err:
            solve(f0, coef, BOX, nx=32, nv=16, nt=30)
        steps.append(err.value.step)
    assert steps == [25, 25]


def test_determinism_bitwise():
    coef = make_rough_coefficients(seed=12, lam=0.2, Lam=1.0, cell_size=0.1,
                                   s_amp=0.2)
    f0 = lambda x, v: np.exp(-x * x - v * v)
    a = solve(f0, coef, BOX, nx=64, nv=48, nt=30)
    b = solve(f0, coef, BOX, nx=64, nv=48, nt=30)
    assert np.array_equal(a.values, b.values)


def test_store_every_matches_dense_run():
    coef = make_rough_coefficients(seed=13, lam=0.2, Lam=1.0, cell_size=0.1)
    f0 = lambda x, v: np.exp(-x * x - v * v)
    dense = solve(f0, coef, BOX, nx=48, nv=32, nt=24)
    thin = solve(f0, coef, BOX, nx=48, nv=32, nt=24, store_every=4)
    assert thin.times.size == 7
    assert np.allclose(thin.times, dense.times[::4])
    assert np.array_equal(thin.values, dense.values[::4])
    with pytest.raises(ValueError):
        solve(f0, coef, BOX, nx=48, nv=32, nt=25, store_every=4)


def test_comparison_principle_up_to_grid_tolerance():
    coef = make_rough_coefficients(seed=14, lam=0.2, Lam=1.0, cell_size=0.12)
    lo = solve(lambda x, v: np.exp(-x * x - v * v), coef, BOX,
               nx=64, nv=48, nt=40)
    hi = solve(lambda x, v: np.exp(-x * x - v * v) + 0.2, coef, BOX,
               nx=64, nv=48, nt=40)
    tol = grid_tolerance(lo.dt, lo.dx, lo.dv)
    assert float(np.min(hi.values - lo.values)) > -tol


def test_max_principle_up_to_grid_tolerance():
    coef = make_rough_coefficients(seed=15, lam=0.2, Lam=1.0, cell_size=0.12)
    f0 = lambda x, v: np.exp(-3 * (x * x + v * v))
    gf = solve(f0, coef, BOX, nx=64, nv=48, nt=40)
    tol = grid_tolerance(gf.dt, gf.dx, gf.dv)
    assert gf.values.max() <= 1.0 + tol
    assert gf.values.min() >= -tol


def test_f0_shape_validation():
    coef = constant_coefficients(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        solve(lambda x, v: np.zeros((3, 3)), coef, BOX, nx=32, nv=16, nt=4)


def test_binary_round_trip(tmp_path):
    coef = make_rough_coefficients(seed=16, lam=0.2, Lam=1.0, cell_size=0.1)
    gf = solve(lambda x, v: np.exp(-x * x - v * v), coef, BOX,
               nx=32, nv=24, nt=8, pad_x=0.7, pad_v=0.9)
    path = tmp_path / "run.kfpg"
    gf.to_binary(path)
    back = load_grid_function(path)
    assert np.array_equal(back.values, gf.values)
    assert np.array_equal(back.times, gf.times)
    assert np.array_equal(back.xs, gf.xs)
    assert np.array_equal(back.vs, gf.vs)
    assert back.pad_x == gf.pad_x and back.pad_v == gf.pad_v
    assert back.solve_box == gf.solve_box
    assert back.meta["scheme"] == gf.meta["scheme"]


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_grid_function(path)


def test_grid_function_shape_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0]), np.array([0.0, 1.0]), np.array([0.0]),
                     np.zeros((1, 1, 1)))


def test_require_cylinder_safe_region():
    times = np.linspace(-1.0, 0.0, 21)
    xs = centered_axis(-2, 2, 64)
    vs = centered_axis(-2, 2, 64)
    gf = sample_function(lambda T, X, V: 0 * T * X * V, times, xs, vs,
                         pad_x=0.5, pad_v=0.5)
    inside = geo.make_cylinder("centered", geo.PhasePoint(0.0, 0.0, 0.0), 0.9)
    gf.require_cylinder(inside)
    too_fat = geo.make_cylinder("centered", geo.PhasePoint(0.0, 0.0, 0.0), 1.8)
    with pytest.raises(SafeRegionError):
        gf.require_cylinder(too_fat)
    too_early = geo.make_cylinder(
        "centered", geo.PhasePoint(-0.5, 0.0, 0.0), 0.9)
    with pytest.raises(SafeRegionError):
        gf.require_cylinder(too_early)


def test_mask_counts_cells():
    times = np.linspace(-1.0, 0.0, 101)
    xs = centered_axis(-1, 1, 100)
    vs = centered_axis(-1, 1, 100)
    gf = sample_function(lambda T, X, V: 0 * T * X * V, times, xs, vs)
    cyl = geo.make_cylinder("centered",
                            geo.PhasePoint(0.0, 0.0, 0.0), 0.5)
    frac = int(gf.mask(cyl).sum()) / gf.values.size
    expected = cyl.volume() / (1.0 * 2.0 * 2.0)
    assert frac == pytest.approx(expected, rel=0.05)


def _full_mask(f, cyl):
    """Membership of every cell center of f, by brute force."""
    T, X, V = np.meshgrid(f.times, f.xs, f.vs, indexing="ij")
    return cyl.contains(T, X, V)


def _standard_axes():
    nt, nx, nv = (STANDARD_CONFIG["grid"][k] for k in ("nt", "nx", "nv"))
    b = Box(**STANDARD_CONFIG["box"])
    return (b.t0 + (b.t1 - b.t0) / nt * np.arange(nt + 1),
            centered_axis(b.x0, b.x1, nx), centered_axis(b.v0, b.v1, nv))


_MASK_AXES = (harnack_observation_axes(), harnack_edge_axes(),
              _standard_axes())
_KIND_PARAMS = [("centered", {}), ("past", {}),
                ("tilde_past", {"divisor": 2}), ("tilde_past", {"divisor": 4}),
                ("covering", {})]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mask_on_window_equals_brute_force_membership(data):
    axes = data.draw(st.sampled_from(_MASK_AXES))
    gf = GridFunction(*axes, np.zeros(tuple(a.size for a in axes)))
    kind, params = data.draw(st.sampled_from(_KIND_PARAMS))
    if data.draw(st.booleans()):  # center on a cell center
        center = [float(a[data.draw(st.integers(0, a.size - 1))])
                  for a in axes]
    else:
        center = [data.draw(st.floats(float(a[0]), float(a[-1])))
                  for a in axes]
    # radii from below one cell to a cylinder covering the whole box
    spans = [float(a[-1] - a[0]) for a in axes]
    lo = 0.5 * min(gf.dt, gf.dx, gf.dv)
    hi = max(spans[0] ** 0.5, spans[1] ** (1 / 3), spans[2])
    radius = lo * (hi / lo) ** data.draw(st.floats(0.0, 1.0))
    cyl = geo.make_cylinder(kind, center, radius, params)
    placed = np.zeros(gf.values.shape, dtype=bool)
    placed[gf.window(cyl)] = gf.mask(cyl)
    assert np.array_equal(placed, _full_mask(gf, cyl))


def test_single_slice_has_no_cell_measure():
    gf = sample_function(lambda T, X, V: 0 * T * X * V, [0.0],
                         centered_axis(-1, 1, 8), centered_axis(-1, 1, 8))
    with pytest.raises(SafeRegionError):
        _ = gf.cell_measure


# ------------------------------------------- per-step reference stepper


def _reference_thomas(lower, diag, upper, rhs):
    nv = diag.shape[1]
    cp = np.empty_like(diag)
    dp = np.empty_like(rhs)
    cp[:, 0] = upper[:, 0] / diag[:, 0]
    dp[:, 0] = rhs[:, 0] / diag[:, 0]
    for j in range(1, nv):
        denom = diag[:, j] - lower[:, j] * cp[:, j - 1]
        cp[:, j] = upper[:, j] / denom
        dp[:, j] = (rhs[:, j] - lower[:, j] * dp[:, j - 1]) / denom
    out = np.empty_like(rhs)
    out[:, -1] = dp[:, -1]
    for j in range(nv - 2, -1, -1):
        out[:, j] = dp[:, j] - cp[:, j] * out[:, j + 1]
    return out


def _reference_diffusion_step(f, coef, t_mid, xs, vs, dv, dt):
    nx, nv = f.shape
    X = xs[:, None]
    a_cell = np.asarray(coef.diffusion(t_mid, X, vs[None, :]), float)
    a_face = np.zeros((nx, nv + 1))
    al = a_cell[:, :-1]
    ar = a_cell[:, 1:]
    a_face[:, 1:-1] = 2.0 * al * ar / (al + ar)
    b = np.asarray(coef.drift(t_mid, X, vs[None, :]), float)
    s = np.asarray(coef.source(t_mid, X, vs[None, :]), float)
    pos_b = np.maximum(b, 0.0)
    neg_b = np.maximum(-b, 0.0)
    pos_b[:, -1] = 0.0
    neg_b[:, 0] = 0.0
    r = dt / dv**2
    q = dt / dv
    lower = -(r * a_face[:, :-1] + q * neg_b)
    upper = -(r * a_face[:, 1:] + q * pos_b)
    diag = 1.0 + r * (a_face[:, :-1] + a_face[:, 1:]) + q * (pos_b + neg_b)
    return _reference_thomas(lower, diag, upper, f + dt * s)


def _reference_solve(f0, coef, box, nx, nv, nt, store_every=1):
    """Samples and eliminates every step, gathers by 2-D fancy index;
    it has no CFL guard."""
    xs = centered_axis(box.x0, box.x1, nx)
    vs = centered_axis(box.v0, box.v1, nv)
    dx = float(xs[1] - xs[0])
    dv = float(vs[1] - vs[0])
    dt = (box.t1 - box.t0) / nt
    f = np.broadcast_to(f0(xs[:, None], vs[None, :]), (nx, nv)).copy()
    k, weights = transport_weights(vs, 0.5 * dt, dx)
    rows = np.arange(nx)[:, None]
    cols = np.arange(nv)[None, :]
    idx = [(rows - k[None, :] + m) % nx for m in (-2, -1, 0, 1)]

    def transport(f):
        out = weights[0][None, :] * f[idx[0], cols]
        for m in range(1, 4):
            out += weights[m][None, :] * f[idx[m], cols]
        return out

    stored = [f.copy()]
    times = [box.t0]
    for n in range(nt):
        t_mid = box.t0 + (n + 0.5) * dt
        f = transport(f)
        f = _reference_diffusion_step(f, coef, t_mid, xs, vs, dv, dt)
        f = transport(f)
        if (n + 1) % store_every == 0:
            stored.append(f.copy())
            times.append(box.t0 + (n + 1) * dt)
    return np.asarray(times), np.stack(stored, axis=0)


# dt = 1/32 from t0 = -1/64 puts every fourth step midpoint exactly on a
# multiple of the 1/8 time cell
EDGE_BOX = Box(-1 / 64, 31 / 64, -2.0, 2.0, -2.0, 2.0)
ROUGH_EIGHTH = make_rough_coefficients(seed=21, lam=0.2, Lam=1.0,
                                       cell_size=0.125, s_amp=0.2)


GRID = (48, 32, 16)  # nx, nv, nt


REFERENCE_CASES = pytest.mark.parametrize("coef, box, grid, kw", [
    pytest.param(ROUGH_EIGHTH, EDGE_BOX, GRID, {},
                 id="midpoints-on-cell-edges"),
    pytest.param(make_rough_coefficients(seed=22, lam=0.2, Lam=1.0,
                                         cell_size=0.02, s_amp=0.2),
                 BOX, GRID, {}, id="dt-exceeds-cell"),
    pytest.param(constant_coefficients(0.7, 0.3, 0.1), BOX, GRID, {},
                 id="constant"),
    pytest.param(ROUGH_EIGHTH, BOX, GRID, {"store_every": 2},
                 id="thinned"),
    pytest.param(ROUGH_EIGHTH, BOX, GRID,
                 {"store_every": 2, "window": (slice(7, 30), slice(0, 19))},
                 id="windowed"),
    pytest.param(_NoDrift(make_rough_coefficients(seed=6, lam=0.2, Lam=1.0,
                                                  cell_size=0.2)),
                 BOX, GRID, {}, id="duck-typed"),
    # CFL 3.75: half-step shifts k run from -2 to 1, pad 4 = nx
    pytest.param(ROUGH_EIGHTH, Box(0.0, 3.0, -2.0, 2.0, -5.0, 5.0),
                 (4, 32, 4), {}, id="wide-shifts"),
    pytest.param(ROUGH_EIGHTH, Box(0.0, 1.0, -2.0, 2.0, -4.0, 4.0),
                 (2, 32, 2), {}, id="nx-below-pad"),
    # CFL 12, past the default limit: k runs from -2 to 5
    pytest.param(ROUGH_EIGHTH, Box(0.0, 3.0, -2.0, 2.0, -2.0, 8.0),
                 (8, 32, 4), {"CFL_LIMIT": np.inf}, id="beyond-cfl-limit"),
])


@REFERENCE_CASES
def test_solve_bitwise_equals_per_step_reference(coef, box, grid, kw,
                                                 monkeypatch):
    _check_against_per_step_reference(coef, box, grid, kw, monkeypatch)


@REFERENCE_CASES
def test_numpy_march_bitwise_equals_per_step_reference(coef, box, grid, kw,
                                                       monkeypatch):
    _numpy_march(monkeypatch)
    _check_against_per_step_reference(coef, box, grid, kw, monkeypatch)


def _check_against_per_step_reference(coef, box, grid, kw, monkeypatch):
    f0 = lambda x, v: np.exp(-2 * (x * x + v * v)) + 0.1 * np.sin(3 * x)
    kw = dict(kw)
    # a case may lift solve's CFL guard, which solve reads at call time
    monkeypatch.setattr(march, "CFL_LIMIT",
                        kw.pop("CFL_LIMIT", march.CFL_LIMIT))
    gf = solve(f0, coef, box, *grid, **kw)
    window = kw.pop("window", (slice(None), slice(None)))
    times, values = _reference_solve(f0, coef, box, *grid, **kw)
    assert np.array_equal(gf.times, times)
    assert np.array_equal(gf.values, values[(slice(None), *window)])
    # the extrema of every stored cell, inside the window or not
    assert gf.extrema == (float(values.min()), float(values.max()))


class _CountingField:
    """Delegates to a field and counts its diffusion samples."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def diffusion(self, t, x, v):
        self.calls += 1
        return self.base.diffusion(t, x, v)


def test_coefficients_sampled_once_per_time_cell():
    coef = _CountingField(ROUGH_EIGHTH)
    solve(lambda x, v: np.exp(-x * x - v * v), coef, BOX, nx=32, nv=16,
          nt=16)
    # midpoints (2n + 1) / 64 fall in the four 1/8 cells of [0, 1/2)
    assert coef.calls == 4


def test_a_time_cell_per_time_samples_every_step():
    # _NoDrift names each time as its own cell
    coef = _CountingField(_NoDrift(ROUGH_EIGHTH))
    solve(lambda x, v: np.exp(-x * x - v * v), coef, BOX, nx=32, nv=16,
          nt=16)
    assert coef.calls == 16
