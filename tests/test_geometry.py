import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kfplab.geometry import (
    PhasePoint,
    as_point,
    compose,
    inverse,
    scale,
    make_cylinder,
    translate_cylinder,
    scale_cylinder,
    vitali_inclusion_check,
)


def assert_point_close(a, b, tol=1e-12):
    assert a.t == pytest.approx(b.t, rel=tol, abs=tol)
    assert np.allclose(a.x, b.x, rtol=tol, atol=tol)
    assert np.allclose(a.v, b.v, rtol=tol, atol=tol)


coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
point = st.builds(lambda t, x, v: PhasePoint(t, x, v), coord, coord, coord)


def test_compose_oracle():
    z = compose((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    assert z.t == 2.0
    assert z.x == 6.0
    assert z.v == 4.0


def test_inverse_oracle():
    z = inverse((1.0, 2.0, 3.0))
    assert z.t == -1.0
    assert z.x == 1.0
    assert z.v == -3.0


def test_scale_oracle():
    z = scale(2.0, (1.0, 1.0, 1.0))
    assert z.t == 4.0
    assert z.x == 8.0
    assert z.v == 2.0


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale(0.0, (0.0, 0.0, 0.0))


@given(point, point, point)
@settings(deadline=None)
def test_compose_associative(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert_point_close(left, right, tol=1e-9)


@given(point)
@settings(deadline=None)
def test_inverse_cancels(a):
    e = compose(a, inverse(a))
    assert_point_close(e, PhasePoint(0.0, 0.0, 0.0), tol=1e-9)
    e = compose(inverse(a), a)
    assert_point_close(e, PhasePoint(0.0, 0.0, 0.0), tol=1e-9)


@given(point, point, st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None)
def test_scale_is_group_homomorphism(a, b, r):
    left = scale(r, compose(a, b))
    right = compose(scale(r, a), scale(r, b))
    assert_point_close(left, right, tol=1e-9)


def test_group_laws_bulk():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-10.0, 10.0, size=(10_000, 9))
    for row in pts[:200]:
        a = PhasePoint(row[0], row[1], row[2])
        b = PhasePoint(row[3], row[4], row[5])
        c = PhasePoint(row[6], row[7], row[8])
        assert_point_close(compose(compose(a, b), c), compose(a, compose(b, c)), tol=1e-10)
        assert_point_close(compose(a, inverse(a)), PhasePoint(0, 0, 0), tol=1e-10)
    # vectorized check of the same laws on the full sample
    t0, x0, v0, t1, x1, v1 = (pts[:, i] for i in range(6))
    tc = t0 + t1
    xc = x0 + x1 + t1 * v0
    vc = v0 + v1
    ti = -tc
    xi = -xc + tc * vc
    vi = -vc
    # (a o b) o (a o b)^-1 in coordinates
    assert np.allclose(tc + ti, 0.0, atol=1e-10)
    assert np.allclose(xc + xi + ti * vc, 0.0, atol=1e-9)
    assert np.allclose(vc + vi, 0.0, atol=1e-10)


def test_unit_cylinder_membership():
    q1 = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    assert q1.contains(-0.5, 0.3, 0.9).all()
    assert q1.contains(0.0, 0.0, 0.0).all()          # top time slice is included
    assert not q1.contains(-1.0, 0.0, 0.0).any()     # bottom time slice is not
    assert not q1.contains(0.5, 0.0, 0.0).any()      # no future
    assert not q1.contains(-0.5, 1.1, 0.0).any()
    assert not q1.contains(-0.5, 0.0, 1.0).any()     # open in v


def test_membership_follows_center_velocity():
    q = make_cylinder("centered", (0.0, 0.0, 2.0), 1.0)
    # tube center at t = -0.5 sits at x = -1.0
    assert q.contains(-0.5, -0.7, 2.5).all()
    assert not q.contains(-0.5, 0.3, 2.5).any()


def test_membership_broadcasts():
    q = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    t = np.array([-0.5, -0.5, 0.25])
    x = np.array([0.0, 2.0, 0.0])
    v = np.array([0.5, 0.5, 0.5])
    got = q.contains(t, x, v)
    assert got.tolist() == [True, False, False]
    # entrywise also when the last axis has length 1 (a one-cell v window)
    got = q.contains(t[:, None], x[:, None], v[:, None])
    assert got.tolist() == [[True], [False], [False]]


def test_volumes():
    q1 = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    assert q1.volume() == pytest.approx(4.0, rel=1e-13)
    qh = make_cylinder("centered", (0.0, 0.0, 0.0), 0.5)
    assert qh.volume() == pytest.approx(1.0 / 16.0, rel=1e-13)
    r = 0.37
    qr = make_cylinder("past", (0.2, 0.1, -0.4), r)
    assert qr.volume() == pytest.approx(4.0 * r ** 6, rel=1e-13)


def test_volume_matches_monte_carlo():
    rng = np.random.default_rng(3)
    q = make_cylinder("centered", (0.0, 0.0, 1.5), 0.8)
    (t0, t1), (x0, x1), (v0, v1) = q.bbox()
    n = 200_000
    t = rng.uniform(t0, t1, n)
    x = rng.uniform(x0, x1, n)
    v = rng.uniform(v0, v1, n)
    box_vol = (t1 - t0) * (x1 - x0) * (v1 - v0)
    est = box_vol * np.count_nonzero(q.contains(t, x, v)) / n
    assert est == pytest.approx(q.volume(), rel=0.02)


def test_past_cylinder_window():
    qm = make_cylinder("past", (0.0, 0.0, 0.0), 1.0)
    assert qm.eff_center.t == -2.0
    assert qm.eff_radius == 1.0
    assert qm.contains(-2.0, 0.0, 0.0).all()
    assert qm.contains(-2.5, 0.5, 0.5).all()
    assert not qm.contains(-3.0, 0.0, 0.0).any()
    assert not qm.contains(-1.99, 0.0, 0.0).any()


def test_time_shifts_drift_with_center_velocity():
    v0 = 1.3
    qm = make_cylinder("past", (0.0, 0.0, v0), 1.0)
    assert qm.eff_center.x == pytest.approx(-2.0 * v0, rel=1e-14)
    assert qm.eff_center.v == v0


@pytest.mark.parametrize("divisor", [2, 4])
def test_tilde_past_reduction(divisor):
    r0 = 0.4
    q = make_cylinder("tilde_past", (0.0, 0.0, 0.0), r0, {"divisor": divisor})
    assert q.eff_center.t == pytest.approx(-19.0 / 8.0 * r0 ** 2, rel=1e-14)
    assert q.eff_radius == pytest.approx(r0 / divisor, rel=1e-14)


def test_tilde_past_rejects_other_divisors():
    with pytest.raises(ValueError):
        make_cylinder("tilde_past", (0.0, 0.0, 0.0), 0.4, {"divisor": 3})


def test_covering_reduction():
    r = 0.25
    c = make_cylinder("covering", (0.0, 0.0, 0.0), r)
    assert c.eff_center.t == pytest.approx(2.0 * r * r, rel=1e-14)
    assert c.eff_radius == pytest.approx(2.0 * r, rel=1e-14)


@pytest.mark.parametrize("kind, params, key", [
    ("covering", {"mate": True}, "mate"),
    ("centered", {"divisor": 4}, "divisor"),
    ("past", {"divisor": 2}, "divisor"),
    ("tilde_past", {"divisor": 4, "junk": 1}, "junk"),
])
def test_params_the_kind_does_not_read_are_rejected(kind, params, key):
    with pytest.raises(ValueError, match=f"does not read params key '{key}'"):
        make_cylinder(kind, (0.0, 0.0, 0.0), 0.2, params)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_cylinder("sideways", (0.0, 0.0, 0.0), 1.0)


def test_lattice_points_are_interior():
    q = make_cylinder("covering", (0.3, -0.2, 0.9), 0.2)
    t, x, v = q.sample_lattice(7)
    assert t.size == 7 ** 3
    assert q.contains(t, x, v).all()


def test_bbox_contains_lattice():
    q = make_cylinder("past", (0.0, 0.0, 2.0), 0.7)
    (t0, t1), (x0, x1), (v0, v1) = q.bbox()
    t, x, v = q.sample_lattice(13)
    assert ((t >= t0) & (t <= t1)).all()
    assert ((x >= x0) & (x <= x1)).all()
    assert ((v >= v0) & (v <= v1)).all()


@pytest.mark.parametrize("kind,params", [
    ("centered", None),
    ("past", None),
    ("tilde_past", {"divisor": 2}),
    ("tilde_past", {"divisor": 4}),
    ("covering", None),
])
def test_membership_is_translation_covariant(kind, params):
    rng = np.random.default_rng(5)
    cyl = make_cylinder(kind, (0.1, 0.2, -0.6), 0.5, params)
    z1 = PhasePoint(0.7, -0.4, 1.1)
    moved = translate_cylinder(z1, cyl)
    (t0, t1), (x0, x1), (v0, v1) = cyl.bbox()
    n = 2000
    t = rng.uniform(t0 - 0.1, t1 + 0.1, n)
    x = rng.uniform(x0 - 0.1, x1 + 0.1, n)
    v = rng.uniform(v0 - 0.1, v1 + 0.1, n)
    before = cyl.contains(t, x, v)
    tt = z1.t + t
    xx = z1.x + x + t * z1.v
    vv = z1.v + v
    after = moved.contains(tt, xx, vv)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("kind,params", [
    ("centered", None),
    ("past", None),
    ("covering", None),
    ("tilde_past", {"divisor": 4}),
])
def test_membership_is_scaling_covariant(kind, params):
    rng = np.random.default_rng(9)
    cyl = make_cylinder(kind, (0.1, 0.2, -0.6), 0.5, params)
    r = 1.7
    dilated = scale_cylinder(r, cyl)
    (t0, t1), (x0, x1), (v0, v1) = cyl.bbox()
    n = 2000
    t = rng.uniform(t0 - 0.1, t1 + 0.1, n)
    x = rng.uniform(x0 - 0.1, x1 + 0.1, n)
    v = rng.uniform(v0 - 0.1, v1 + 0.1, n)
    before = cyl.contains(t, x, v)
    after = dilated.contains(r * r * t, r ** 3 * x, r * v)
    assert np.array_equal(before, after)


def _random_covering_pair(rng):
    r2 = 10.0 ** rng.uniform(math.log10(0.02), math.log10(0.25))
    r1 = r2 * rng.uniform(0.3, 2.2)
    t2 = rng.uniform(-1.0, 1.0)
    x2 = rng.uniform(-1.0, 1.0)
    v2 = rng.uniform(-1.5, 1.5)
    dt = rng.uniform(-12.0, 12.0) * r2 ** 2
    v1 = v2 + rng.uniform(-8.0, 8.0) * r2
    x1 = x2 + dt * v2 + rng.uniform(-150.0, 150.0) * r2 ** 3
    c1 = make_cylinder("covering", (t2 + dt, x1, v1), r1)
    c2 = make_cylinder("covering", (t2, x2, v2), r2)
    return c1, c2


def test_vitali_engulfing_holds_on_random_pairs():
    rng = np.random.default_rng(0)
    n_intersecting = 0
    n_vacuous_radius = 0
    for _ in range(2000):
        c1, c2 = _random_covering_pair(rng)
        report = vitali_inclusion_check(c1, c2)
        assert report.holds, (c1.describe(), c2.describe(), report)
        if report.intersects:
            n_intersecting += 1
            assert report.included is True
        if not report.radius_ok:
            n_vacuous_radius += 1
    assert n_intersecting >= 100
    assert n_vacuous_radius >= 100


def test_vitali_far_apart_filter_agrees_with_sampling():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 50:
        c1, c2 = _random_covering_pair(rng)
        report = vitali_inclusion_check(c1, c2)
        if report.note != "centers too far apart to intersect":
            continue
        t, x, v = c1.sample_lattice(9)
        assert not c2.contains(t, x, v).any()
        t, x, v = c2.sample_lattice(9)
        assert not c1.contains(t, x, v).any()
        checked += 1


def test_vitali_detects_strong_overlap():
    z = (0.2, 0.3, -0.5)
    c1 = make_cylinder("covering", z, 0.15)
    c2 = make_cylinder("covering", z, 0.10)
    report = vitali_inclusion_check(c1, c2)
    assert report.radius_ok
    assert report.intersects is True
    assert report.included is True
    assert report.holds


def test_vitali_radius_condition_is_vacuous():
    z = (0.0, 0.0, 0.0)
    c1 = make_cylinder("covering", z, 0.5)
    c2 = make_cylinder("covering", z, 0.1)
    report = vitali_inclusion_check(c1, c2)
    assert not report.radius_ok
    assert report.holds
    assert report.included is None


def test_vitali_rejects_non_covering_input():
    q = make_cylinder("centered", (0.0, 0.0, 0.0), 0.2)
    c = make_cylinder("covering", (0.0, 0.0, 0.0), 0.2)
    with pytest.raises(ValueError):
        vitali_inclusion_check(q, c)


def test_describe_round_trips_through_json():
    import json

    q = make_cylinder("tilde_past", (0.1, 0.2, 0.3), 0.25, {"divisor": 4})
    blob = json.dumps(q.describe())
    back = json.loads(blob)
    assert back["kind"] == "tilde_past"
    assert back["params"]["divisor"] == 4
    assert back["effective_radius"] == pytest.approx(q.eff_radius)


def test_vitali_identical_cylinders():
    c = make_cylinder("covering", (0.1, -0.2, 0.4), 0.12)
    report = vitali_inclusion_check(c, c)
    assert report.intersects is True
    assert report.included is True
    assert bool(report)


def test_translation_covariance_via_inverse():
    rng = np.random.default_rng(13)
    z0 = PhasePoint(0.4, -0.3, 0.8)
    q_at_z0 = make_cylinder("centered", z0, 0.6)
    q_at_origin = make_cylinder("centered", (0.0, 0.0, 0.0), 0.6)
    z0_inv = inverse(z0)
    for _ in range(500):
        z = PhasePoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = compose(z0_inv, z)
        a = q_at_z0.contains(z.t, z.x, z.v).all()
        b = q_at_origin.contains(w.t, w.x, w.v).all()
        assert a == b


def test_scaling_covariance_to_unit_cylinder():
    rng = np.random.default_rng(17)
    r = 0.35
    q_r = make_cylinder("centered", (0.0, 0.0, 0.0), r)
    q_1 = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    for _ in range(500):
        z = PhasePoint(rng.uniform(-0.2, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(-0.5, 0.5))
        w = scale(1.0 / r, z)
        assert q_r.contains(z.t, z.x, z.v).all() == q_1.contains(w.t, w.x, w.v).all()


def test_as_point_accepts_triples_and_points():
    z = as_point((1.0, 2.0, 3.0))
    assert isinstance(z, PhasePoint)
    assert as_point(z) is z


def _norm_contains(cyl, t, x, v):
    """Membership as computed with a component axis: each x and v entry
    a one-component vector measured with np.linalg.norm."""
    zc, rho = cyl.eff_center, cyl.eff_radius
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)[..., None]
    v = np.asarray(v, dtype=float)[..., None]
    dt = t - zc.t
    tube = x - (zc.x + dt[..., None] * zc.v)
    ok = (dt > -rho * rho) & (dt <= 0.0)
    ok = ok & (np.linalg.norm(tube, axis=-1) < rho ** 3)
    return ok & (np.linalg.norm(v - zc.v, axis=-1) < rho)


_KINDS = [("centered", None), ("past", None),
          ("tilde_past", {"divisor": 2}), ("tilde_past", {"divisor": 4}),
          ("covering", None)]
# unit offsets: inside, outside, on the boundary and next to it, and
# tiny ones where the squared norm underflows
_UNIT = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from([-1.0, 1.0, 0.0, -0.0, 1e-200, -1e-160,
                                   np.nextafter(1.0, 2.0),
                                   np.nextafter(1.0, 0.0)]))


@st.composite
def _membership_case(draw):
    kind, params = draw(st.sampled_from(_KINDS))
    center = tuple(draw(st.floats(-10.0, 10.0)) for _ in range(3))
    cyl = make_cylinder(kind, center, draw(st.floats(1e-3, 10.0)), params)
    zc, rho = cyl.eff_center, cyl.eff_radius
    n = draw(st.integers(1, 12))
    s = np.array(draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from(
        [0.0, 1.0]), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(_UNIT, min_size=n, max_size=n)))
    dt = -rho * rho * s
    t = zc.t + dt
    x = zc.x + dt * zc.v + a * rho ** 3
    v = zc.v + b * rho
    shape = draw(st.sampled_from(["flat", "column", "scalar_t", "grid"]))
    if shape == "column":  # a length-1 last axis, as in a one-cell window
        t, x, v = t[:, None], x[:, None], v[:, None]
    elif shape == "scalar_t":
        t = float(t[0])
    elif shape == "grid":
        t, x, v = t[:, None, None], x[None, :, None], v[None, None, :]
    return cyl, t, x, v


@given(_membership_case())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_scalar_membership_matches_norm_reference(case):
    cyl, t, x, v = case
    got = cyl.contains(t, x, v)
    ref = _norm_contains(cyl, t, x, v)
    assert got.shape == ref.shape
    zc = cyl.eff_center
    dt = np.asarray(t) - zc.t
    tube = np.abs(x - (zc.x + dt * zc.v))
    dv = np.abs(np.asarray(v) - zc.v)
    far = (tube > 1e-150) & (dv > 1e-150)
    far = np.broadcast_to(far, got.shape)
    assert np.array_equal(got[far], ref[far])
