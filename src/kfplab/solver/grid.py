"""Gridded phase-space functions and their container format.

A GridFunction stores values on a tensor grid: x and v axes are cell
centers of uniform cells, and each stored time slice represents the
half-open time cell (t - dt_store, t] ending at the slice time.  That
convention matches the half-open time windows of the measurement
cylinders, so an aligned cylinder is tiled exactly by grid cells.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct

import numpy as np

from ..geometry import Cylinder
from .coefficients import time_cell_runs

__all__ = ["Box", "CylinderCells", "GridFunction", "SafeRegionError",
           "InsufficientResolutionError", "sample_function",
           "load_grid_function", "velocity_gradient", "window_union"]

_MAGIC = b"KFPG"
_VERSION = 1


class SafeRegionError(ValueError):
    """A measurement region leaves the boundary-clean part of the grid."""


class InsufficientResolutionError(ValueError):
    """The cylinder captures too few grid cells for the quantity."""


@dataclasses.dataclass(frozen=True)
class Box:
    """Axis-aligned phase-space box [t0,t1] x [x0,x1] x [v0,v1]."""

    t0: float
    t1: float
    x0: float
    x1: float
    v0: float
    v1: float

    def __post_init__(self):
        if not (self.t0 <= self.t1 and self.x0 <= self.x1
                and self.v0 <= self.v1):
            raise ValueError("box bounds are not ordered")

    def shrink(self, pad_x, pad_v) -> "Box":
        return Box(self.t0, self.t1, self.x0 + pad_x, self.x1 - pad_x,
                   self.v0 + pad_v, self.v1 - pad_v)

    def contains(self, bounds) -> bool:
        """Whether ((t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi)) lies inside,
        up to 1e-9 on every side."""
        tol = 1e-9
        (t_lo, t_hi), (x_lo, x_hi), (v_lo, v_hi) = bounds
        return (t_lo >= self.t0 - tol and t_hi <= self.t1 + tol
                and x_lo >= self.x0 - tol and x_hi <= self.x1 + tol
                and v_lo >= self.v0 - tol and v_hi <= self.v1 + tol)

    def intersect(self, other: "Box") -> "Box":
        return Box(max(self.t0, other.t0), min(self.t1, other.t1),
                   max(self.x0, other.x0), min(self.x1, other.x1),
                   max(self.v0, other.v0), min(self.v1, other.v1))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class GridFunction:
    """Values on a uniform (t, x, v) grid plus measurement metadata.

    pad_x / pad_v declare how many coordinate units near the x and v
    boundaries are considered contaminated (by the periodic wrap and
    the artificial zero-flux wall); solve_box records the domain the
    dynamics ran on.

    The stored values may cover only an (x, v) window of the grid, as
    solve stores for a member's checks: whole_axes then holds the
    grid's whole x and v axes (None: xs and vs), from which dx, dv,
    box and safe_box are read, and recorded_extrema the (min, max) of
    the whole grid's values (None: scanned from values; see extrema).
    Cell windows, masks and values index the stored axes.
    """

    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    values: np.ndarray
    pad_x: float = 0.0
    pad_v: float = 0.0
    solve_box: Box = None
    meta: dict = dataclasses.field(default_factory=dict)
    whole_axes: tuple = None
    recorded_extrema: tuple = None
    _cells: dict = dataclasses.field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.vs = np.asarray(self.vs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.times.size, self.xs.size, self.vs.size)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} != axes {expected}")
        if self.whole_axes is None:
            self.whole_axes = (self.xs, self.vs)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    @property
    def dx(self) -> float:
        xs = self.whole_axes[0]
        return float(xs[1] - xs[0]) if xs.size > 1 else 0.0

    @property
    def dv(self) -> float:
        vs = self.whole_axes[1]
        return float(vs[1] - vs[0]) if vs.size > 1 else 0.0

    @property
    def box(self) -> Box:
        """Extent of the grid's cells (time cells end at slice times)."""
        dt, dx, dv = self.dt, self.dx, self.dv
        xs, vs = self.whole_axes
        return Box(float(self.times[0]) - dt, float(self.times[-1]),
                   float(xs[0]) - dx / 2, float(xs[-1]) + dx / 2,
                   float(vs[0]) - dv / 2, float(vs[-1]) + dv / 2)

    @property
    def extrema(self) -> tuple:
        """(min, max) of the whole grid's values."""
        if self.recorded_extrema is not None:
            return self.recorded_extrema
        return float(self.values.min()), float(self.values.max())

    @property
    def safe_box(self) -> Box:
        """Grid minus the declared boundary padding."""
        base = self.solve_box if self.solve_box is not None else self.box
        return base.shrink(self.pad_x, self.pad_v).intersect(self.box)

    @property
    def cell_measure(self) -> float:
        if self.times.size < 2:
            raise SafeRegionError(
                "cell measure undefined on a single-slice grid function")
        return self.dt * self.dx * self.dv

    def require_cylinder(self, cyl: Cylinder):
        """Raise SafeRegionError unless the cylinder sits in the safe box."""
        safe = self.safe_box
        if not safe.contains(cyl.bbox()):
            raise SafeRegionError(
                f"cylinder {cyl.describe()['kind']} with bbox "
                f"{cyl.bbox()} leaves safe box {safe}")

    def window(self, bounds) -> tuple:
        """Index slices of the cells whose centers (slice times in t) lie in
        closed ((t0, t1), (x0, x1), (v0, v1)) bounds, or in a Cylinder's
        bbox widened by one cell per side, so rounding drops no member."""
        if isinstance(bounds, Cylinder):
            bounds = [(lo - h, hi + h) for (lo, hi), h
                      in zip(bounds.bbox(), (self.dt, self.dx, self.dv))]
        return tuple(
            slice(int(np.searchsorted(axis, lo, side="left")),
                  int(np.searchsorted(axis, hi, side="right")))
            for axis, (lo, hi) in zip((self.times, self.xs, self.vs), bounds))

    def read_window(self, regions) -> tuple:
        """window_union of window(r) over the regions."""
        return window_union([self.window(r) for r in regions])

    def mask(self, cyl: Cylinder) -> np.ndarray:
        """Membership of the cell centers of window(cyl), one slice at a
        time; f.values[window][mask] lists the cells in grid order."""
        wt, wx, wv = window = self.window(cyl)
        out = np.empty(self.values[window].shape, dtype=bool)
        X, V = np.meshgrid(self.xs[wx], self.vs[wv], indexing="ij", copy=False)
        for it, t in enumerate(self.times[wt]):
            out[it] = cyl.contains(float(t), X, V)
        return out

    def cells(self, cyl: Cylinder, minimum=1) -> "CylinderCells":
        """The cells whose centers lie in the cylinder, built once per
        cylinder: the memo is keyed by the effective center and radius,
        the only fields membership reads.  Every call raises
        SafeRegionError unless the cylinder sits in the safe box, and
        InsufficientResolutionError if it holds fewer than minimum cells.
        """
        self.require_cylinder(cyl)
        z = cyl.eff_center
        key = (z.t, z.x, z.v, cyl.eff_radius)
        cells = self._cells.get(key)
        if cells is None:
            cells = CylinderCells(self, self.window(cyl), self.mask(cyl))
            self._cells[key] = cells
        if cells.count < minimum:
            raise InsufficientResolutionError(
                f"cylinder holds {cells.count} cells, need at least {minimum}")
        return cells

    def to_binary(self, path):
        if self.values.shape[1:] != tuple(a.size for a in self.whole_axes):
            raise ValueError("only a whole grid has a container form")
        meta = dict(self.meta)
        meta["pad_x"] = self.pad_x
        meta["pad_v"] = self.pad_v
        meta["solve_box"] = (self.solve_box.as_dict()
                             if self.solve_box is not None else None)
        blob = json.dumps(meta, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _VERSION, 1))
            for axis in (self.times, self.xs, self.vs):
                fh.write(struct.pack("<Q", axis.size))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(self.times.astype("<f8").tobytes())
            fh.write(self.xs.astype("<f8").tobytes())
            fh.write(self.vs.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())


class CylinderCells:
    """The cells of a grid function whose centers lie in one cylinder:
    mask marks them in the grid block that window slices out, and
    values, grad_v, centers and source list them in grid order, while
    max, min and fraction reduce over the block under the mask without
    copying it.  Only views of the grid's arrays are kept, so the memo
    forms no cycle."""

    def __init__(self, f: GridFunction, window, mask):
        wt, wx, wv = self.window = window
        self.mask = mask
        self.count = int(np.count_nonzero(mask))
        self._rows = f.values[wt, wx]  # whole v rows, for d/dv at walls
        self._dv = f.dv
        self._axes = (f.times[wt], f.xs[wx], f.vs[wv])
        self._sources = {}

    @property
    def _block(self) -> np.ndarray:
        return self._rows[..., self.window[2]]

    @property
    def values(self) -> np.ndarray:
        return self._block[self.mask]

    def max(self) -> float:
        return float(np.max(self._block, where=self.mask, initial=-np.inf))

    def min(self) -> float:
        return float(np.min(self._block, where=self.mask, initial=np.inf))

    def fraction(self, member) -> float:
        """Share of the cells whose values member marks: member maps
        the block to a new boolean array of its shape."""
        hit = member(self._block)
        hit &= self.mask
        return np.count_nonzero(hit) / self.count

    def grad_v(self) -> np.ndarray:
        """The grid's velocity_gradient at the cells."""
        grad = velocity_gradient(self._rows, self._dv)
        return grad[..., self.window[2]][self.mask]

    def centers(self) -> tuple:
        """(t, x, v) of the cells."""
        return tuple(a[i] for a, i in zip(self._axes, np.nonzero(self.mask)))

    def x_columns(self, minimum=0) -> list:
        """(it, x_ok) for each time slice it of the window that holds a
        cell, x_ok marking the window's x-cells in use at it; raises
        InsufficientResolutionError when such a slice has fewer than
        minimum x-cells."""
        x_ok = self.mask.any(axis=2)
        counts = x_ok.sum(axis=1)
        held = np.flatnonzero(counts)
        short = held[counts[held] < minimum]
        if short.size:
            raise InsufficientResolutionError(
                f"only {counts[short[0]]} x-cells in a cylinder slice, "
                f"need at least {minimum}")
        return [(it, x_ok[it]) for it in held]

    def source(self, coef) -> np.ndarray:
        """coef.source at the cell centers, sampled once per field.

        Sampled once per time_cell_runs run of the window's slices, on
        the window's (x, v) plane, from which each slice of the run
        reads its cells: bitwise one call on every center."""
        if coef not in self._sources:
            ts, xs, vs = self._axes
            out = np.empty(self.count)
            end = 0
            for start, stop in time_cell_runs(coef, ts):
                plane = coef.source(ts[start], xs[:, None], vs[None, :])
                for hit in self.mask[start:stop]:
                    part = plane[hit]
                    out[end:end + part.size] = part
                    end += part.size
            self._sources[coef] = out
        return self._sources[coef]


def load_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    if buf.read(4) != _MAGIC:
        raise ValueError("not a grid function container")
    version, d = struct.unpack("<II", buf.read(8))
    if version != _VERSION:
        raise ValueError(f"unsupported container version {version}")
    if d != 1:
        raise ValueError(f"unsupported dimension {d}")
    nt, nx, nv = (struct.unpack("<Q", buf.read(8))[0] for _ in range(3))
    blob_len = struct.unpack("<Q", buf.read(8))[0]
    meta = json.loads(buf.read(blob_len).decode())
    times = np.frombuffer(buf.read(8 * nt), dtype="<f8").copy()
    xs = np.frombuffer(buf.read(8 * nx), dtype="<f8").copy()
    vs = np.frombuffer(buf.read(8 * nv), dtype="<f8").copy()
    values = np.frombuffer(buf.read(8 * nt * nx * nv), dtype="<f8")
    values = values.reshape(nt, nx, nv).copy()
    pad_x = meta.pop("pad_x", 0.0)
    pad_v = meta.pop("pad_v", 0.0)
    sb = meta.pop("solve_box", None)
    solve_box = Box(**sb) if sb else None
    return GridFunction(times, xs, vs, values, pad_x=pad_x, pad_v=pad_v,
                        solve_box=solve_box, meta=meta)


def window_union(windows) -> tuple:
    """The union of (t, x, v) index windows, v widened by one cell per
    side (the low end clipped at 0, a stop past the axis end by
    slicing) so velocity_gradient there is the whole grid's."""
    lo = [min(w.start for w in axis) for axis in zip(*windows)]
    hi = [max(w.stop for w in axis) for axis in zip(*windows)]
    lo[2], hi[2] = max(lo[2] - 1, 0), hi[2] + 1
    return tuple(map(slice, lo, hi))


def velocity_gradient(values: np.ndarray, dv: float,
                      out=None) -> np.ndarray:
    """d/dv along the last axis: centered inside, one-sided at walls.

    Written to out (an array of values' shape, not values itself) when
    given, else to a new array, and returned.  The interior differences
    are divided in one pass over the whole contiguous array, faster than
    over its strided interior; the wall columns are zeroed first, so
    stale values there raise no overflow warning, and written after.
    """
    g = np.empty_like(values) if out is None else out
    g[..., 0] = g[..., -1] = 0.0
    np.subtract(values[..., 2:], values[..., :-2], out=g[..., 1:-1])
    g /= 2.0 * dv
    g[..., 0] = (values[..., 1] - values[..., 0]) / dv
    g[..., -1] = (values[..., -1] - values[..., -2]) / dv
    return g


def centered_axis(lo, hi, n):
    """n uniform cell centers filling [lo, hi]."""
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def sample_function(fn, times, xs, vs, pad_x=0.0, pad_v=0.0,
                    meta=None) -> GridFunction:
    """Sample fn(t, x, v) (numpy-broadcastable) onto a tensor grid."""
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    T = times[:, None, None]
    X = xs[None, :, None]
    V = vs[None, None, :]
    values = np.broadcast_to(np.asarray(fn(T, X, V), dtype=float),
                             (times.size, xs.size, vs.size)).copy()
    return GridFunction(times, xs, vs, values, pad_x=pad_x, pad_v=pad_v,
                        meta=dict(meta or {"scheme": "sampled"}))
