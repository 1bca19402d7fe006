"""Galilean group operations and the kinetic cylinders built from them.

Phase points are z = (t, x, v) with x and v in R^d.  The group law

    compose(z0, z1) = (t0 + t1, x0 + x1 + t1 v0, v0 + v1)

is the symmetry of free transport (d/dt + v . grad_x), and the scaling

    scale(r, z) = (r^2 t, r^3 x, r v)

is the dilation that preserves the balance between transport and
velocity diffusion.  A centered cylinder of radius rho at z0 is the set

    -rho^2 < t - t0 <= 0,
    |x - x0 - (t - t0) v0| < rho^3,
    |v - v0| < rho,

a tube trailing backward in time and drifting with the center velocity.
Every other cylinder kind used by the estimate checkers (past, future,
shrunk past, covering, nested) reduces to a centered cylinder after a
group translation of the center and a change of radius, so each
instance stores an effective center and radius and all set operations
run on those two fields.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

__all__ = [
    "PhasePoint",
    "as_point",
    "compose",
    "inverse",
    "scale",
    "ball_volume",
    "Cylinder",
    "make_cylinder",
    "translate_cylinder",
    "scale_cylinder",
    "VitaliReport",
    "vitali_inclusion_check",
]


@dataclasses.dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (t, x, v) of kinetic phase space; x and v have equal length."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if x.ndim != 1 or v.ndim != 1 or x.shape != v.shape:
            raise ValueError("x and v must be one dimensional and of equal length")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> int:
        return self.x.size


def as_point(z) -> PhasePoint:
    """Coerce a PhasePoint or a (t, x, v) triple into a PhasePoint."""
    if isinstance(z, PhasePoint):
        return z
    t, x, v = z
    return PhasePoint(t, x, v)


def compose(a, b) -> PhasePoint:
    """Group product a o b: b read in the frame carried along by a."""
    a, b = as_point(a), as_point(b)
    return PhasePoint(a.t + b.t, a.x + b.x + b.t * a.v, a.v + b.v)


def inverse(a) -> PhasePoint:
    """Group inverse, so compose(a, inverse(a)) is the identity."""
    a = as_point(a)
    return PhasePoint(-a.t, -a.x + a.t * a.v, -a.v)


def scale(r: float, a) -> PhasePoint:
    """Kinetic dilation (r^2 t, r^3 x, r v) with r > 0."""
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    a = as_point(a)
    return PhasePoint(r * r * a.t, r ** 3 * a.x, r * a.v)


def ball_volume(d: int) -> float:
    """Volume of the unit euclidean ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _components(arr, d: int) -> np.ndarray:
    """View an array as points with d spatial components on the last
    axis; for d = 1 each entry is a point, whatever the array's shape."""
    arr = np.asarray(arr, dtype=float)
    if d == 1:
        return arr[..., None]
    if arr.ndim == 0 or arr.shape[-1] != d:
        raise ValueError(f"expected points with {d} components on the last axis")
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class Cylinder:
    """A kinetic cylinder; construct through make_cylinder.

    kind and (center, radius, params) record the requested cylinder,
    eff_center and eff_radius the equivalent centered cylinder that all
    geometry runs on.
    """

    kind: str
    center: PhasePoint
    radius: float
    params: dict
    eff_center: PhasePoint
    eff_radius: float

    def contains(self, t, x, v):
        """Pointwise membership with broadcasting; x, v entrywise when d = 1."""
        zc = self.eff_center
        rho = self.eff_radius
        t = np.asarray(t, dtype=float)
        x = _components(x, zc.d)
        v = _components(v, zc.d)
        dt = t - zc.t
        tube = x - (zc.x + dt[..., None] * zc.v)
        ok = (dt > -rho * rho) & (dt <= 0.0)
        ok = ok & (np.linalg.norm(tube, axis=-1) < rho ** 3)
        ok = ok & (np.linalg.norm(v - zc.v, axis=-1) < rho)
        return ok

    def volume(self) -> float:
        """Lebesgue measure: rho^(4d+2) times the unit cylinder volume."""
        d = self.eff_center.d
        return self.eff_radius ** (4 * d + 2) * ball_volume(d) ** 2

    def sample_lattice(self, n: int):
        """Regular lattice of n**3 strictly interior points (d = 1 only).

        Offsets use the midpoint rule per axis, so no point sits on the
        boundary and the time slice t = center time is not included.
        """
        if self.eff_center.d != 1:
            raise NotImplementedError("lattice sampling is implemented for d = 1")
        rho = self.eff_radius
        tc = self.eff_center.t
        xc = float(self.eff_center.x[0])
        vc = float(self.eff_center.v[0])
        frac = (np.arange(n) + 0.5) / n
        dt = -rho * rho * frac
        off = 2.0 * frac - 1.0
        T, U, W = np.meshgrid(dt, off, off, indexing="ij")
        t = tc + T
        x = xc + T * vc + rho ** 3 * U
        v = vc + rho * W
        return t.ravel(), x.ravel(), v.ravel()

    def bbox(self):
        """Axis aligned bounds ((t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi)), d = 1.

        The x extent accounts for the drift of the tube center across
        the time window.
        """
        if self.eff_center.d != 1:
            raise NotImplementedError("bbox is implemented for d = 1")
        rho = self.eff_radius
        tc = self.eff_center.t
        xc = float(self.eff_center.x[0])
        vc = float(self.eff_center.v[0])
        x_drift = -rho * rho * vc
        x_lo = min(xc, xc + x_drift) - rho ** 3
        x_hi = max(xc, xc + x_drift) + rho ** 3
        return (tc - rho * rho, tc), (x_lo, x_hi), (vc - rho, vc + rho)

    def describe(self) -> dict:
        """JSON ready summary used in reports."""
        zc, ze = self.center, self.eff_center
        return {
            "kind": self.kind,
            "radius": self.radius,
            "center": [zc.t, zc.x.tolist(), zc.v.tolist()],
            "params": dict(self.params),
            "effective_center": [ze.t, ze.x.tolist(), ze.v.tolist()],
            "effective_radius": self.eff_radius,
        }


def make_cylinder(kind: str, center, radius: float, params: Optional[dict] = None) -> Cylinder:
    """Build a cylinder of the given kind around a center point.

    Kinds and their reduction to an effective centered cylinder, with r
    the radius argument and time shifts applied through the group law
    (so the center drifts along its own characteristic):

      centered    radius r at the center itself
      past        radius r, center shifted by -2 r^2 in time
      future      radius r/2, center shifted by +2 r^2
      tilde_past  radius r/divisor (params divisor in {2, 4}),
                  center shifted by -19/8 r^2
      covering    radius 2 r, center shifted by +2 r^2; with params
                  {"mate": True} instead radius r shifted by +10 r^2
      nested      stage k >= 1 (params k) of a family that shrinks from
                  the past cylinder at k = 1 toward the tilde_past
                  cylinder with divisor 2: radius rho_k = r/2 + alpha_k,
                  alpha_k = r / (2 * 7**(k-1)), center shifted by
                  -5/2 r^2 + rho_k^2 / 2
    """
    center = as_point(center)
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    params = dict(params or {})
    if kind == "centered":
        shift, rho = 0.0, r
    elif kind == "past":
        shift, rho = -2.0 * r * r, r
    elif kind == "future":
        shift, rho = 2.0 * r * r, 0.5 * r
    elif kind == "tilde_past":
        divisor = params.setdefault("divisor", 2)
        if divisor not in (2, 4):
            raise ValueError("tilde_past divisor must be 2 or 4")
        shift, rho = -19.0 / 8.0 * r * r, r / divisor
    elif kind == "covering":
        mate = bool(params.setdefault("mate", False))
        if mate:
            shift, rho = 10.0 * r * r, r
        else:
            shift, rho = 2.0 * r * r, 2.0 * r
    elif kind == "nested":
        k = int(params.get("k", 0))
        if k < 1:
            raise ValueError("nested cylinders need params['k'] >= 1")
        params["k"] = k
        alpha = r / (2.0 * 7.0 ** (k - 1))
        rho = 0.5 * r + alpha
        shift = -2.5 * r * r + 0.5 * rho * rho
    else:
        raise ValueError(f"unknown cylinder kind {kind!r}")
    zeros = np.zeros(center.d)
    eff_center = compose(center, PhasePoint(shift, zeros, zeros))
    return Cylinder(kind, center, r, params, eff_center, rho)


def translate_cylinder(z, cyl: Cylinder) -> Cylinder:
    """Left translate a cylinder by the group element z."""
    return make_cylinder(cyl.kind, compose(z, cyl.center), cyl.radius, cyl.params)


def scale_cylinder(r: float, cyl: Cylinder) -> Cylinder:
    """Dilate a cylinder by r; commutes with membership under scale()."""
    return make_cylinder(cyl.kind, scale(r, cyl.center), r * cyl.radius, cyl.params)


@dataclasses.dataclass(frozen=True)
class VitaliReport:
    """Outcome of one covering inclusion check.

    holds is the implication itself, so it is True when the radius
    condition fails or no intersection is detected.  intersects and
    included stay None on branches where they were not evaluated.
    """

    radius_ok: bool
    intersects: Optional[bool]
    included: Optional[bool]
    holds: bool
    n_points: int
    note: str

    def __bool__(self) -> bool:
        return self.holds


def vitali_inclusion_check(c1: Cylinder, c2: Cylinder, n: int = 17) -> VitaliReport:
    """Check the covering engulfing property on a sampled lattice.

    For plain covering cylinders the claim is: if the two cylinders
    intersect and r1 <= 2 r2, then the first lies inside the fivefold
    inflation of the second.  Intersection is detected by sampling each
    cylinder's interior lattice against the other, and inclusion is
    verified on the first cylinder's lattice.  A cheap necessary
    condition on the centers rules out far apart pairs without
    sampling.
    """
    for c in (c1, c2):
        if c.kind != "covering" or c.params.get("mate"):
            raise ValueError("vitali_inclusion_check expects plain covering cylinders")
    if c1.center.d != 1 or c2.center.d != 1:
        raise NotImplementedError("implemented for d = 1")
    r1, r2 = c1.radius, c2.radius
    if r1 > 2.0 * r2:
        return VitaliReport(False, None, None, True, 0,
                            "radius condition r1 <= 2 r2 fails, nothing to check")
    # Any common point forces |t1 - t2| < 2 r1^2 + 2 r2^2 <= 10 r2^2,
    # |v1 - v2| < 2 r1 + 2 r2 <= 6 r2 and then
    # |x1 - x2 - (t1 - t2) v2| < 120 r2^3.  Violation certifies disjointness.
    z1, z2 = c1.center, c2.center
    dt = z1.t - z2.t
    if (abs(dt) >= 10.0 * r2 ** 2
            or np.linalg.norm(z1.v - z2.v) >= 6.0 * r2
            or np.linalg.norm(z1.x - z2.x - dt * z2.v) >= 120.0 * r2 ** 3):
        return VitaliReport(True, False, None, True, 0,
                            "centers too far apart to intersect")
    lat1 = c1.sample_lattice(n)
    lat2 = c2.sample_lattice(n)
    hit = bool(np.any(c2.contains(*lat1))) or bool(np.any(c1.contains(*lat2)))
    if not hit:
        return VitaliReport(True, False, None, True, lat1[0].size + lat2[0].size,
                            "no intersection detected on the sampling lattices")
    inflated = make_cylinder("covering", z2, 5.0 * r2)
    included = bool(np.all(inflated.contains(*lat1)))
    return VitaliReport(True, True, included, included, lat1[0].size,
                        "intersection found, inclusion tested on the first lattice")
