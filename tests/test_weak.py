"""Weak sub/super-solution residual machinery."""

import json
import tracemalloc

import numpy as np
import pytest

from kfplab.geometry import PhasePoint
from kfplab.solver.coefficients import (constant_coefficients,
                                        make_rough_coefficients)
from kfplab.solver.grid import Box
from kfplab.experiments import STANDARD_CONFIG
from kfplab.solver import march
from kfplab.solver.march import solve, solve_grid
from kfplab.solver.weak import (
    HingeProfile,
    TestBump,
    default_hinges,
    default_test_basis,
    indicator_subsolution,
    translated_kernel_solution,
    weak_basis,
    weak_residual,
)
from kfplab.calibration import grid_tolerance
from kfplab.solver.grid import centered_axis, velocity_gradient


def _axes(t0, t1, nt, x0, x1, nx, v0, v1, nv):
    dt = (t1 - t0) / nt
    times = t0 + dt * (np.arange(nt) + 1.0)
    return times, centered_axis(x0, x1, nx), centered_axis(v0, v1, nv)


# ---------------------------------------------------------------- hinges


def test_hinge_monotone_and_convex():
    beta = HingeProfile(0.3, 0.05)
    s = np.linspace(-2.0, 2.0, 4001)
    vals, der = beta.value_and_deriv(s)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(der >= 0.0) and np.all(der <= 1.0)
    # convexity: derivative nondecreasing
    assert np.all(np.diff(der) >= 0.0)


def test_hinge_derivative_consistent():
    beta = HingeProfile(-0.2, 0.11)
    s = np.linspace(-1.5, 1.5, 301)
    h = 1e-6
    fd = (beta.value_and_deriv(s + h)[0]
          - beta.value_and_deriv(s - h)[0]) / (2.0 * h)
    assert np.max(np.abs(fd - beta.value_and_deriv(s)[1])) < 1e-8


@pytest.mark.parametrize("width", [0.1, 0.01, 0.001])
def test_hinge_ramp_limit(width):
    beta = HingeProfile(0.4, width)
    s = np.linspace(-2.0, 2.0, 2001)
    ramp = np.maximum(s - 0.4, 0.0)
    gap = np.abs(beta.value_and_deriv(s)[0] - ramp)
    # softplus exceeds the ramp by at most width * log 2, at the kink
    assert np.max(gap) <= width * np.log(2.0) + 1e-12
    assert abs(beta.value_and_deriv(0.4)[0] - width * np.log(2.0)) < 1e-12


def test_hinge_extreme_arguments_stable():
    beta = HingeProfile(0.0, 0.01)
    big = np.array([-1e5, -1e2, 1e2, 1e5])
    vals, der = beta.value_and_deriv(big)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(der))
    assert vals[0] == 0.0 and der[0] == 0.0
    assert der[-1] == 1.0
    assert abs(vals[-1] - 1e5) < 1e-9


def _literal_hinge(beta, s):
    """The softplus hinge and its derivative as literal logaddexp forms."""
    z = (np.asarray(s, float) - beta.threshold) / beta.width
    return (beta.width * np.logaddexp(0.0, z),
            np.exp(-np.logaddexp(0.0, -z)))


def _bits(a):
    return np.asarray(a, float).tobytes()


def _hinge_sweep():
    rng = np.random.default_rng(13)
    draws = [scale * rng.standard_normal(100_000)
             for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 800.0)]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 700.0, -700.0,
             740.0, -740.0, 1e308, -1e308, np.inf, -np.inf]
    return np.concatenate(draws + [np.array(edges)])


@pytest.mark.parametrize("threshold, width", [(0.0, 1.0), (0.3, 0.05),
                                              (-0.2, 0.011)])
def test_hinge_bitwise_equals_literal_softplus(threshold, width):
    # value and derivative share one softplus term; they must stay
    # bitwise the literal forms, on arrays and on 0-d input alike
    beta = HingeProfile(threshold, width)
    with np.errstate(over="ignore"):  # 1e308 / width is inf on both sides
        s = _hinge_sweep()
        value, deriv = _literal_hinge(beta, s)
        got = beta.value_and_deriv(s)
        assert _bits(got[0]) == _bits(value)
        assert _bits(got[1]) == _bits(deriv)
        for x in (0.4, threshold, -0.0, 1e308, -np.inf):
            value, deriv = _literal_hinge(beta, x)
            got = beta.value_and_deriv(x)
            assert _bits(got[0]) == _bits(value)
            assert _bits(got[1]) == _bits(deriv)


@pytest.mark.parametrize("negate", [False, True], ids=["s", "minus-s"])
def test_hinge_into_buffers_bitwise_equals_allocating_form(negate):
    # weak_residual's reused buffers, and its mirror read without a
    # negated copy: (-c) - s must round as (-s) - c does
    beta = HingeProfile(0.3, 0.05)
    with np.errstate(over="ignore"):
        s = _hinge_sweep()
        mirrored = np.negative(s) if negate else s
        value, deriv = beta.value_and_deriv(mirrored)
        literal = _literal_hinge(beta, mirrored)
        out = tuple(np.empty(s.shape) for _ in range(3))
        got = beta.value_and_deriv(s, out=out, negate=negate)
    assert got[0] is out[0] and got[1] is out[1]
    assert _bits(got[0]) == _bits(value) == _bits(literal[0])
    assert _bits(got[1]) == _bits(deriv) == _bits(literal[1])


# ------------------------------------------------------------ test bumps


def test_bump_support_and_peak():
    phi = TestBump((0.0, 0.5, -1.0), (0.2, 0.3, 0.4))
    assert phi.value(0.0, 0.5, -1.0) == pytest.approx(1.0)
    # dies outside the support box, including exactly on the edge
    assert phi.value(0.2, 0.5, -1.0) == 0.0
    assert phi.value(0.0, 0.81, -1.0) == 0.0
    assert phi.value(0.0, 0.5, -1.41) == 0.0
    # strictly positive strictly inside
    assert phi.value(0.1, 0.4, -0.8) > 0.0
    # flat approach to the edge
    assert phi.value(0.199, 0.5, -1.0) < 1e-30


def test_bump_transport_matches_finite_differences():
    phi = TestBump((0.1, -0.2, 0.3), (0.5, 0.7, 0.9))
    rng = np.random.default_rng(7)
    T = 0.1 + 0.35 * (2.0 * rng.random(40) - 1.0)
    X = -0.2 + 0.5 * (2.0 * rng.random(40) - 1.0)
    V = 0.3 + 0.6 * (2.0 * rng.random(40) - 1.0)
    h = 1e-5
    fd_t = (phi.value(T + h, X, V) - phi.value(T - h, X, V)) / (2.0 * h)
    fd_x = (phi.value(T, X + h, V) - phi.value(T, X - h, V)) / (2.0 * h)
    fd_v = (phi.value(T, X, V + h) - phi.value(T, X, V - h)) / (2.0 * h)
    assert np.max(np.abs(fd_t + V * fd_x - phi.transport(T, X, V))) < 1e-6
    assert np.max(np.abs(fd_v - phi.grad_v(T, X, V))) < 1e-6


def test_default_basis_tiles_strictly_inside():
    region = ((-1.0, 0.0), (-2.0, 2.0), (-3.0, 3.0))
    bumps = default_test_basis(region)
    assert len(bumps) == 18
    for phi in bumps:
        (ta, tb), (xa, xb), (va, vb) = phi.support()
        assert ta >= -1.0 and tb <= 0.0
        assert xa >= -2.0 and xb <= 2.0
        assert va >= -3.0 and vb <= 3.0


def test_default_hinges_span_range():
    betas = default_hinges(-1.0, 3.0)
    assert len(betas) == 15
    cs = sorted({b.threshold for b in betas})
    assert cs[0] > -1.0 and cs[-1] < 3.0
    assert all(b.width > 0 for b in betas)


# ------------------------------------------------------- residual checks


def test_kernel_solution_weak_both_directions():
    # exact solution of the unit-diffusion equation: both inequalities hold
    times, xs, vs = _axes(-0.4, 0.0, 40, -1.2, 1.2, 96, -2.0, 2.0, 96)
    f = translated_kernel_solution(PhasePoint(-1.0, 0.0, 0.0),
                                   times, xs, vs)
    basis = weak_basis(f, constant_coefficients(1.0, 0.0, 0.0))
    for direction in ("sub", "super"):
        rep = weak_residual(basis, direction)
        assert rep.passed, (direction, rep.max_residual, rep.tolerance)
        assert rep.max_residual <= rep.tolerance


def test_solver_output_weak_both_directions():
    # numerical solution with rough coefficients passes both directions
    coef = make_rough_coefficients(3, lam=0.25, Lam=1.0, cell_size=0.08)
    box = Box(0.0, 0.3, -1.0, 1.0, -1.5, 1.5)
    f0 = lambda x, v: np.exp(-4.0 * x**2 - 2.0 * v**2)
    f = solve(f0, coef, box, nx=160, nv=96, nt=60, pad_x=0.4, pad_v=0.5)
    basis = weak_basis(f, coef)
    for direction in ("sub", "super"):
        rep = weak_residual(basis, direction)
        assert rep.passed, (direction, rep.max_residual, rep.tolerance)


def test_indicator_is_subsolution_but_not_super():
    # fast-moving half-space indicator: genuine sub-solution, and the
    # mirrored test must fail with a wide margin (negative control)
    times, xs, vs = _axes(-0.5, 0.0, 80, -1.0, 1.0, 160, -1.0, 1.0, 80)
    f = indicator_subsolution(1.2, 0.1, times, xs, vs)
    basis = weak_basis(f, constant_coefficients(0.5, 0.0, 0.0))
    sub = weak_residual(basis, "sub")
    assert sub.passed
    sup = weak_residual(basis, "super")
    assert not sup.passed
    assert sup.max_residual >= 10.0 * sup.tolerance


def test_slow_indicator_fails_subsolution():
    # |c| below the sampled velocities: the surface term changes sign
    # on part of the line and the sub-solution inequality breaks
    times, xs, vs = _axes(-0.5, 0.0, 80, -1.0, 1.0, 160, -1.0, 1.0, 80)
    f = indicator_subsolution(0.3, 0.05, times, xs, vs)
    rep = weak_residual(weak_basis(f, constant_coefficients(0.5, 0.0, 0.0)))
    assert not rep.passed
    assert rep.max_residual >= 2.0 * rep.tolerance


def test_weak_residual_rejects_bump_outside_safe_box():
    times, xs, vs = _axes(-0.4, 0.0, 20, -1.0, 1.0, 48, -1.0, 1.0, 48)
    f = translated_kernel_solution(PhasePoint(-1.0, 0.0, 0.0),
                                   times, xs, vs, pad_x=0.3, pad_v=0.3)
    coef = constant_coefficients(1.0, 0.0, 0.0)
    bad = TestBump((-0.2, 0.85, 0.0), (0.1, 0.1, 0.2))
    with pytest.raises(ValueError, match="safe box"):
        weak_basis(f, coef, phis=[bad])


def test_weak_residual_rejects_bump_holding_no_cell():
    # a bump between the wall and the first v center samples nothing
    times, xs, vs = _axes(-0.4, 0.0, 20, -1.0, 1.0, 48, -1.0, 1.0, 48)
    f = translated_kernel_solution(PhasePoint(-1.0, 0.0, 0.0),
                                   times, xs, vs)
    dv = f.dv
    thin = TestBump((-0.2, 0.0, vs[0] - dv / 4), (0.1, 0.3, dv / 8))
    with pytest.raises(ValueError, match="holds no cell"):
        weak_basis(f, constant_coefficients(1.0, 0.0, 0.0), phis=[thin])


def test_weak_residual_direction_validated():
    times, xs, vs = _axes(-0.2, 0.0, 10, -1.0, 1.0, 24, -1.0, 1.0, 24)
    f = indicator_subsolution(1.2, 0.0, times, xs, vs)
    with pytest.raises(ValueError, match="direction"):
        weak_residual(weak_basis(f, constant_coefficients(1.0, 0.0, 0.0)),
                      direction="sideways")


def test_weak_basis_rejects_empty_basis():
    # no (beta, phi) pair evaluated is not a pass
    times, xs, vs = _axes(-0.2, 0.0, 10, -1.0, 1.0, 24, -1.0, 1.0, 24)
    f = indicator_subsolution(1.2, 0.0, times, xs, vs)
    with pytest.raises(ValueError, match="phis is empty"):
        weak_basis(f, constant_coefficients(1.0, 0.0, 0.0), phis=[])


def test_custom_basis_and_report_roundtrip():
    times, xs, vs = _axes(-0.4, 0.0, 20, -1.0, 1.0, 48, -1.0, 1.0, 48)
    f = indicator_subsolution(1.2, 0.1, times, xs, vs)
    coef = constant_coefficients(0.5, 0.0, 0.0)
    phi = TestBump((-0.2, 0.0, 0.0), (0.15, 0.5, 0.5))
    rep = weak_residual(weak_basis(f, coef, phis=[phi]))
    # the 15 default hinges of f's range [0, 1] against the one bump
    assert rep.n_pairs == 15
    assert rep.tolerance == grid_tolerance(f.dt, f.dx, f.dv)
    blob = json.dumps(rep.to_json_dict())
    back = json.loads(blob)
    assert back["direction"] == "sub"
    assert back["worst_pair"]["phi_index"] == 0
    assert ([row["beta"] for row in back["residuals"]]
            == [beta.describe() for beta in default_hinges(0.0, 1.0)])


def test_weak_residual_copies_no_full_grid():
    # small bumps on a large grid: only their window of f is copied, so
    # neither direction allocates as much as the grid's values
    times, xs, vs = _axes(-0.4, 0.0, 64, -1.0, 1.0, 128, -1.0, 1.0, 128)
    f = translated_kernel_solution(PhasePoint(-1.0, 0.0, 0.0),
                                   times, xs, vs)
    coef = constant_coefficients(1.0, 0.0, 0.0)
    phis = [TestBump((-0.2, 0.0, 0.0), (0.05, 0.1, 0.1)),
            TestBump((-0.1, 0.2, -0.3), (0.03, 0.05, 0.08))]
    tracemalloc.start()
    try:
        basis = weak_basis(f, coef, phis)
        for direction in ("sub", "super"):
            rep = weak_residual(basis, direction)
            assert rep.n_pairs == 15 * len(phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes, (peak, f.values.nbytes)


def test_weak_basis_keeps_no_bump_sized_array():
    # on the standard verify grid, each bump keeps 1-D arrays along its
    # window's axes: pt and its derivative, px and its derivative, pv,
    # its derivative and V, so at most 2 nt + 2 nx + 3 nv floats
    grid, pads = STANDARD_CONFIG["grid"], STANDARD_CONFIG["pads"]
    f = solve_grid(Box(**STANDARD_CONFIG["box"]), grid["nx"], grid["nv"],
                   grid["nt"], pads["x"], pads["v"])
    basis = weak_basis(f, constant_coefficients(1.0, 0.0, 0.0))
    nt, nx, nv = f.values.shape
    per_bump = 8 * (2 * nt + 2 * nx + 3 * nv)
    kept = sum(a.nbytes for bump in basis.bumps for item in bump
               for a in (item if isinstance(item, tuple) else (item,))
               if isinstance(a, np.ndarray))
    assert kept <= len(basis.bumps) * per_bump
    # one full array per bump would break that bound many times over
    cells = sum(np.prod([s.stop - s.start for s in sl])
                for sl, *_ in basis.bumps)
    assert 8 * cells > 100 * len(basis.bumps) * per_bump


# ------------------------------------------------- per-bump reference


def _reference_weak_residual(f, coef, direction, betas=None, phis=None):
    """Hinges (their literal logaddexp forms, not HingeProfile's) and
    their gradient on every stored cell, coefficients and bumps on each
    bump's own meshgrid, one bump at a time."""
    sgn = 1.0 if direction == "sub" else -1.0
    fv = sgn * f.values
    if phis is None:
        safe = f.safe_box
        phis = default_test_basis(((float(f.times[0]), float(f.times[-1])),
                                   (safe.x0, safe.x1), (safe.v0, safe.v1)))
    if betas is None:
        betas = default_hinges(float(fv.min()), float(fv.max()))
    tolerance = grid_tolerance(f.dt, f.dx, f.dv)
    rows = []
    for beta in betas:
        bf, bprime = _literal_hinge(beta, fv)
        gbf = velocity_gradient(bf, f.dv)
        for k, phi in enumerate(phis):
            sl = f.window(phi.support())
            T, X, V = np.meshgrid(f.times[sl[0]], f.xs[sl[1]], f.vs[sl[2]],
                                  indexing="ij")
            A = np.asarray(coef.diffusion(T, X, V), float)
            B = np.asarray(coef.drift(T, X, V), float)
            S = sgn * np.asarray(coef.source(T, X, V), float)
            tphi = phi.transport(T, X, V)
            pval = phi.value(T, X, V)
            gphi = phi.grad_v(T, X, V)
            r = f.cell_measure * float(np.sum(
                -bf[sl] * tphi + A * gbf[sl] * gphi
                - (B * gbf[sl] + S * bprime[sl]) * pval))
            rows.append({"beta": beta.describe(), "phi_index": k,
                         "residual": r})
    worst = max(rows, key=lambda row: row["residual"])
    return {"max_residual": worst["residual"], "tolerance": tolerance,
            "passed": worst["residual"] <= tolerance, "direction": direction,
            "worst_pair": dict(worst), "n_pairs": len(rows),
            "residuals": rows}


def _rough_solve(coef, pad_v=0.5):
    box = Box(0.0, 0.3, -1.0, 1.0, -1.5, 1.5)
    f0 = lambda x, v: np.exp(-4.0 * x**2 - 2.0 * v**2) + 0.1 * np.sin(3 * x)
    return solve(f0, coef, box, nx=64, nv=40, nt=24, pad_x=0.4, pad_v=pad_v)


ROUGH = make_rough_coefficients(3, lam=0.25, Lam=1.0, cell_size=0.08,
                                s_amp=0.2)


class _SmoothField:
    """Coefficients that vary within every slice interval, so each time
    is its own time cell and weak_basis samples them once per slice.
    Sums and products only: they round alike on any broadcast shape."""

    def time_cell(self, t):
        return t

    def diffusion(self, t, x, v):
        return 0.5 + 0.2 * t * t + 0.1 * x * x + 0.05 * v * v

    def drift(self, t, x, v):
        return 0.3 * t - 0.2 * v + 0.1 * x

    def source(self, t, x, v):
        return 0.1 * t * x + 0.05 * v

    def describe(self):
        return {"kind": "smooth"}


REFERENCE_CASES = pytest.mark.parametrize("coef, pad_v, kw", [
    pytest.param(ROUGH, 0.5, {}, id="default-basis-with-pads"),
    pytest.param(ROUGH, 0.0, {}, id="window-clipped-at-both-v-walls"),
    pytest.param(ROUGH, 0.5,
                 {"phis": default_test_basis(
                     ((0.05, 0.25), (-0.5, 0.3), (-0.8, 0.9)))},
                 id="explicit-region"),
    pytest.param(ROUGH, 0.5,
                 {"phis": [TestBump((0.1, -0.4, -0.6), (0.05, 0.15, 0.3)),
                           TestBump((0.2, 0.4, 0.6), (0.08, 0.1, 0.2))]},
                 id="far-apart-bumps-of-different-widths"),
    pytest.param(constant_coefficients(0.7, 0.3, 0.1), 0.5, {},
                 id="constant"),
    pytest.param(make_rough_coefficients(5, lam=0.2, Lam=1.0, cell_size=0.1),
                 0.5, {}, id="zero-source"),
    pytest.param(_SmoothField(), 0.5, {}, id="per-slice-time-cell"),
])


@REFERENCE_CASES
def test_weak_residual_bitwise_equals_per_bump_reference(coef, pad_v, kw):
    _check_against_per_bump_reference(coef, pad_v, kw)


@REFERENCE_CASES
def test_numpy_weak_residual_bitwise_equals_per_bump_reference(
        coef, pad_v, kw, monkeypatch):
    # solve and weak_residual as on a host without the compiled library
    monkeypatch.setattr(march, "_kernel_library", lambda: None)
    assert march.kernel_path() == "numpy"
    _check_against_per_bump_reference(coef, pad_v, kw)


def _check_against_per_bump_reference(coef, pad_v, kw):
    # each direction on a basis of its own, and both on one shared basis
    f = _rough_solve(coef, pad_v)
    shared = weak_basis(f, coef, kw.get("phis"))
    for direction in ("sub", "super"):
        ref = _reference_weak_residual(f, coef, direction, **kw)
        for rep in (weak_residual(weak_basis(f, coef, kw.get("phis")),
                                  direction),
                    weak_residual(shared, direction)):
            assert (json.dumps(rep.to_json_dict(), indent=1)
                    == json.dumps(ref, indent=1))


class _CountingField:
    """Delegates to a field and counts its samples of A, B and S."""

    def __init__(self, base):
        self.base = base
        self.calls = {"diffusion": 0, "drift": 0, "source": 0}

    def __getattr__(self, name):
        field = getattr(self.base, name)
        if name not in self.calls:
            return field

        def counted(t, x, v):
            self.calls[name] += 1
            return field(t, x, v)
        return counted


@pytest.mark.parametrize("base, runs", [
    # the basis reads all 25 slice times 0, 0.0125, ..., 0.3; the 0.08
    # cells hold 7, 6, 7 and 5 of them
    pytest.param(ROUGH, 4, id="lattice-cells"),
    pytest.param(_SmoothField(), 25, id="per-slice-time-cell"),
])
def test_weak_basis_samples_once_per_time_cell_run(base, runs):
    f = _rough_solve(ROUGH)
    coef = _CountingField(base)
    basis = weak_basis(f, coef)
    assert basis.values.shape[0] == f.times.size == 25
    assert coef.calls == {"diffusion": runs, "drift": runs, "source": runs}
    assert len(basis.groups) == runs
