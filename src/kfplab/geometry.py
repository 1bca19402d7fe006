"""Galilean group operations and the kinetic cylinders built from them.

Phase points are z = (t, x, v) with t, x and v real numbers.  The
group law

    compose(z0, z1) = (t0 + t1, x0 + x1 + t1 v0, v0 + v1)

is the symmetry of free transport (d/dt + v d/dx), and the scaling

    scale(r, z) = (r^2 t, r^3 x, r v)

is the dilation that preserves the balance between transport and
velocity diffusion.  A centered cylinder of radius rho at z0 is the set

    -rho^2 < t - t0 <= 0,
    |x - x0 - (t - t0) v0| < rho^3,
    |v - v0| < rho,

a tube trailing backward in time and drifting with the center velocity.
Every other cylinder kind (past, shrunk past, covering) reduces to a
centered cylinder after a group translation of the center and a change
of radius, so each instance stores an effective center and radius and
all set operations run on those two fields.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

__all__ = [
    "PhasePoint",
    "as_point",
    "compose",
    "inverse",
    "scale",
    "Cylinder",
    "make_cylinder",
    "translate_cylinder",
    "scale_cylinder",
    "VitaliReport",
    "vitali_inclusion_check",
]


@dataclasses.dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point (t, x, v) of kinetic phase space, three floats."""

    t: float
    x: float
    v: float

    def __post_init__(self):
        for name in ("t", "x", "v"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def to_json(self) -> list:
        """[t, [x], [v]]: reports write x and v as one-element lists."""
        return [self.t, [self.x], [self.v]]


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
        """Pointwise membership, broadcasting t, x and v entrywise."""
        zc = self.eff_center
        rho = self.eff_radius
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        dt = t - zc.t
        tube = x - (zc.x + dt * zc.v)
        ok = (dt > -rho * rho) & (dt <= 0.0)
        ok = ok & (np.abs(tube) < rho ** 3)
        ok = ok & (np.abs(v - zc.v) < rho)
        return ok

    def volume(self) -> float:
        """Lebesgue measure: 4 rho^6, rho^2 in t times 2 rho^3 in x
        times 2 rho in v."""
        return 4.0 * self.eff_radius ** 6

    def sample_lattice(self, n: int):
        """Regular lattice of n**3 strictly interior points.

        Offsets use the midpoint rule per axis, so no point sits on the
        boundary and the time slice t = center time is not included.
        """
        rho = self.eff_radius
        tc, xc, vc = self.eff_center.t, self.eff_center.x, self.eff_center.v
        frac = (np.arange(n) + 0.5) / n
        dt = -rho * rho * frac
        off = 2.0 * frac - 1.0
        T, U, W = np.meshgrid(dt, off, off, indexing="ij")
        t = tc + T
        x = xc + T * vc + rho ** 3 * U
        v = vc + rho * W
        return t.ravel(), x.ravel(), v.ravel()

    def bbox(self):
        """Axis aligned bounds ((t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi)).

        The x extent accounts for the drift of the tube center across
        the time window.
        """
        rho = self.eff_radius
        tc, xc, vc = self.eff_center.t, self.eff_center.x, self.eff_center.v
        x_drift = -rho * rho * vc
        x_lo = min(xc, xc + x_drift) - rho ** 3
        x_hi = max(xc, xc + x_drift) + rho ** 3
        return (tc - rho * rho, tc), (x_lo, x_hi), (vc - rho, vc + rho)

    def describe(self) -> dict:
        """JSON ready summary used in reports."""
        return {
            "kind": self.kind,
            "radius": self.radius,
            "center": self.center.to_json(),
            "params": dict(self.params),
            "effective_center": self.eff_center.to_json(),
            "effective_radius": self.eff_radius,
        }


def make_cylinder(kind: str, center, radius: float, params: Optional[dict] = None) -> Cylinder:
    """Build a cylinder of the given kind around a center point.

    The four kinds are those the statements of kfplab.estimates.checks
    build and the Vitali covering check reads.  Each reduces to an
    effective centered cylinder, with r the radius argument and time
    shifts applied through the group law (so the center drifts along
    its own characteristic):

      centered    radius r at the center itself
      past        radius r, center shifted by -2 r^2 in time
      tilde_past  radius r/divisor (params divisor in {2, 4}),
                  center shifted by -19/8 r^2
      covering    radius 2 r, center shifted by +2 r^2

    A params key the kind does not read is rejected, so a cylinder never
    records a variant it was not built as.
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
    elif kind == "tilde_past":
        divisor = params.setdefault("divisor", 2)
        if divisor not in (2, 4):
            raise ValueError("tilde_past divisor must be 2 or 4")
        shift, rho = -19.0 / 8.0 * r * r, r / divisor
    elif kind == "covering":
        shift, rho = 2.0 * r * r, 2.0 * r
    else:
        raise ValueError(f"unknown cylinder kind {kind!r}")
    for key in params:
        if key != "divisor" or kind != "tilde_past":
            raise ValueError(f"a {kind} cylinder does not read params key {key!r}")
    eff_center = compose(center, PhasePoint(shift, 0.0, 0.0))
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


def vitali_inclusion_check(c1: Cylinder, c2: Cylinder) -> VitaliReport:
    """Check the covering engulfing property on a sampled lattice.

    For covering cylinders the claim is: if the two cylinders intersect
    and r1 <= 2 r2, then the first lies inside the fivefold inflation
    of the second.  Intersection is detected by sampling each
    cylinder's interior 17^3 lattice against the other, and inclusion
    is verified on the first cylinder's lattice.  A cheap necessary
    condition on the centers rules out far apart pairs without
    sampling.
    """
    for c in (c1, c2):
        if c.kind != "covering":
            raise ValueError("vitali_inclusion_check expects covering cylinders")
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
            or abs(z1.v - z2.v) >= 6.0 * r2
            or abs(z1.x - z2.x - dt * z2.v) >= 120.0 * r2 ** 3):
        return VitaliReport(True, False, None, True, 0,
                            "centers too far apart to intersect")
    lat1 = c1.sample_lattice(17)
    lat2 = c2.sample_lattice(17)
    hit = bool(np.any(c2.contains(*lat1))) or bool(np.any(c1.contains(*lat2)))
    if not hit:
        return VitaliReport(True, False, None, True, lat1[0].size + lat2[0].size,
                            "no intersection detected on the sampling lattices")
    inflated = make_cylinder("covering", z2, 5.0 * r2)
    included = bool(np.all(inflated.contains(*lat1)))
    return VitaliReport(True, True, included, included, lat1[0].size,
                        "intersection found, inclusion tested on the first lattice")
