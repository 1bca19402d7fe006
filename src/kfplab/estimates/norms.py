"""Norms, level-set measures, and seminorms over kinetic cylinders.

All quantities integrate with the midpoint rule: a grid cell belongs to
a cylinder iff its center does, and contributes its full cell measure.
This gives one-cell-level accuracy, which is what the calibrated
tolerances assume.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Cylinder
from ..solver.grid import (GridFunction, InsufficientResolutionError,
                           velocity_gradient)

__all__ = [
    "InsufficientResolutionError",
    "lp_norm",
    "grid_lp_norm",
    "level_set_fraction",
    "band_fraction",
    "cylinder_average",
    "sup_on",
    "inf_on",
    "velocity_gradient",
    "grad_v_l1",
    "gagliardo_x_seminorm",
    "holder_seminorm",
    "source_sup",
    "source_l2",
]

_RELATIONS = {
    "le": np.less_equal,
    "lt": np.less,
    "ge": np.greater_equal,
    "gt": np.greater,
}


def _lp(f: GridFunction, vals, p) -> float:
    p = float(p)
    if not p > 0:
        raise ValueError("p must be positive")
    if np.isinf(p):
        return float(np.max(np.abs(vals)))
    return float((np.abs(vals) ** p).sum() * f.cell_measure) ** (1.0 / p)


def lp_norm(f: GridFunction, cyl: Cylinder, p) -> float:
    """L^p norm over the cylinder; quasi-norm for p < 1, sup for p = inf."""
    return _lp(f, f.cells(cyl).values, p)


def grid_lp_norm(f: GridFunction, p) -> float:
    """L^p norm over the whole stored box (no cylinder restriction)."""
    return _lp(f, f.values, p)


def level_set_fraction(f: GridFunction, cyl: Cylinder, relation: str,
                       threshold: float) -> float:
    """Fraction of cylinder cells whose value satisfies the relation."""
    if relation not in _RELATIONS:
        raise ValueError(f"relation must be one of {sorted(_RELATIONS)}")
    vals = f.cells(cyl).values
    return float(np.mean(_RELATIONS[relation](vals, threshold)))


def band_fraction(f: GridFunction, cyl: Cylinder, lo: float,
                  hi: float) -> float:
    """Fraction of cylinder cells with lo < value < hi (both strict)."""
    vals = f.cells(cyl).values
    return float(np.mean((vals > lo) & (vals < hi)))


def cylinder_average(f: GridFunction, cyl: Cylinder) -> float:
    """Normalized cell average over the cylinder."""
    return float(np.mean(f.cells(cyl).values))


def sup_on(f: GridFunction, cyl: Cylinder) -> float:
    return float(np.max(f.cells(cyl).values))


def inf_on(f: GridFunction, cyl: Cylinder) -> float:
    return float(np.min(f.cells(cyl).values))


def grad_v_l1(f: GridFunction, cyl: Cylinder) -> float:
    """L^1 norm of the velocity gradient over the cylinder."""
    return float(np.abs(f.cells(cyl).grad_v()).sum() * f.cell_measure)


# fewest x-cells a time slice of the cylinder needs for the pair sum
GAGLIARDO_MIN_X_CELLS = 4


def gagliardo_x_seminorm(f: GridFunction, cyl: Cylinder,
                         sigma: float) -> float:
    """Fractional seminorm in x, integrated in (t, v) over the cylinder.

    Discrete double sum over distinct x-cell pairs inside the cylinder:

        sum_{t,v} sum_{x != x'} |f(t,x,v) - f(t,x',v)| / |x - x'|^(1+sigma)
            * dx^2 * dv * dt

    The x-window of a kinetic cylinder depends on t only, so each time
    slice contributes a dense pair block; every slice holding a cell
    needs GAGLIARDO_MIN_X_CELLS x-cells.
    """
    if not 0.0 < sigma < 1.0 / 3.0:
        raise ValueError("sigma must lie in (0, 1/3)")
    cells = f.cells(cyl)
    window, mask = cells.window, cells.mask
    v_ok = mask.any(axis=(0, 1))
    total = 0.0
    for it, x_ok in cells.x_columns(GAGLIARDO_MIN_X_CELLS):
        xs = f.xs[window[1]][x_ok]
        gaps = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(gaps, 1.0)
        weights = gaps ** (-(1.0 + sigma))
        np.fill_diagonal(weights, 0.0)
        vals = f.values[window][it][np.ix_(x_ok, v_ok)]
        diffs = np.abs(vals[:, None, :] - vals[None, :, :])
        total += float(np.einsum("ijk,ij->", diffs, weights))
    return total * f.dx * f.dx * f.dv * f.dt


def holder_seminorm(f: GridFunction, cyl: Cylinder, alpha: float,
                    min_sep: float, max_points: int = 4000) -> float:
    """Max of |f(z1) - f(z2)| / |z1 - z2|^alpha over separated pairs.

    Distance is Euclidean on (t, x, v).  Pairs are drawn from a
    stride-decimated sublattice of the cylinder's cells capped at
    max_points points, and only pairs at distance >= min_sep count.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    coarse = 2.0 * max(f.dt, f.dx, f.dv)
    if min_sep < coarse:
        raise ValueError(
            f"min_sep {min_sep:g} below twice the grid spacing {coarse:g}")
    cells = f.cells(cyl)
    mask = cells.mask

    strides = [1, 1, 1]
    axes = [np.flatnonzero(mask.any(axis=other))
            for other in ((1, 2), (0, 2), (0, 1))]

    def selected():
        sel = np.ix_(*(ax[::st] for ax, st in zip(axes, strides)))
        keep = np.zeros_like(mask)
        keep[sel] = mask[sel]
        return keep

    keep = selected()
    while np.count_nonzero(keep) > max_points:
        sizes = [len(ax[::st]) for ax, st in zip(axes, strides)]
        strides[int(np.argmax(sizes))] *= 2
        keep = selected()

    sub = keep[mask]  # the kept cells among the cylinder's, in grid order
    pts = np.stack(cells.centers(), axis=1)[sub]
    vals = cells.values[sub]
    n = pts.shape[0]
    best = 0.0
    admissible = 0
    for i0 in range(0, n, 256):
        block = slice(i0, min(i0 + 256, n))
        diff = pts[block, None, :] - pts[None, :, :]
        sep = np.sqrt((diff * diff).sum(axis=-1))
        ok = sep >= min_sep
        admissible += int(ok.sum())
        if not ok.any():
            continue
        ratio = np.abs(vals[block, None] - vals[None, :])[ok] / sep[ok] ** alpha
        best = max(best, float(ratio.max()))
    if admissible == 0:
        raise InsufficientResolutionError(
            "no cell pairs at the requested separation")
    return best


def source_sup(coef, cyl: Cylinder, n: int = 12) -> float:
    """Sup of |S| over an interior lattice of the cylinder.

    Lattice sampling underestimates the true sup of a rough field, which
    only makes the estimates it enters harder to pass.
    """
    t, x, v = cyl.sample_lattice(n)
    return float(np.max(np.abs(coef.source(t, x, v))))


def source_l2(coef, f: GridFunction, cyl: Cylinder) -> float:
    """L^2 norm of the source sampled on f's cells inside the cylinder."""
    svals = f.cells(cyl).source(coef)
    return float(np.sqrt((svals ** 2).sum() * f.cell_measure))
