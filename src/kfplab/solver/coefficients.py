"""Rough coefficient fields with measurable-only regularity.

Coefficients are piecewise constant on a cubic lattice in (t, x, v)
anchored at the origin with spacing cell_size.  Cell values come from a
counter-based integer hash of (seed, channel, cell index), so a field
is a pure function of position: evaluation order, box size, and grid
resolution cannot change it.  The diffusion coefficient A stays in
[lam, Lam], the drift B in [-Lam, Lam], the source S in [-s_amp, s_amp].
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["CoefficientField", "make_rough_coefficients",
           "constant_coefficients"]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)

_CHANNEL = {"A": np.uint64(11), "B": np.uint64(13), "S": np.uint64(17)}


def _mix(z):
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        z = (z + _C1) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _C2) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _C3) & _MASK
        return z ^ (z >> np.uint64(31))


def _full(value, t, x, v):
    """value everywhere on the broadcast shape of (t, x, v)."""
    shape = np.broadcast(np.asarray(t), np.asarray(x), np.asarray(v)).shape
    return np.full(shape, value)


@dataclasses.dataclass(frozen=True)
class CoefficientField:
    """Coefficients (A, B, S) evaluable at arbitrary phase points.

    kind "rough" draws lattice-cell values from the seeded hash; kind
    "constant" returns the fixed triple const = (a, b, s) everywhere.
    Serialization carries only the defining parameters.

    Any field solve and weak_basis take provides diffusion, drift,
    source, describe and time_cell; a field whose values change with
    every t may return t itself as its time cell.
    """

    seed: int
    lam: float
    Lam: float
    cell_size: float
    s_amp: float
    kind: str = "rough"
    const: tuple = ()

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError("ellipticity bounds need 0 < lam <= Lam")
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        if self.s_amp < 0.0:
            raise ValueError("s_amp must be nonnegative")

    def time_cell(self, t):
        """Index of the lattice time cell holding t, elementwise.

        The field depends on t only through this index, so values
        sampled at one t hold for every t in the same cell: solve and
        weak_basis sample once per run of times in one cell.
        """
        return np.floor(t * (1.0 / self.cell_size))

    def _uniform(self, channel, t, x, v):
        """Hash of (seed, channel, it, ix, iv) in [0, 1).

        Each stage runs on the broadcast shape of the inputs it has read
        so far, so on open grids only the last stage is full-size.
        """
        inv = 1.0 / self.cell_size
        h = _mix(np.uint64(self.seed) ^ _CHANNEL[channel])
        for cell in (self.time_cell(np.asarray(t, float)),
                     np.floor(np.asarray(x, float) * inv),
                     np.floor(np.asarray(v, float) * inv)):
            h = _mix(h ^ cell.astype(np.int64).view(np.uint64))
        return h.astype(np.float64) / 2.0**64

    def diffusion(self, t, x, v):
        if self.kind == "constant":
            return _full(self.const[0], t, x, v)
        u = self._uniform("A", t, x, v)
        return self.lam + (self.Lam - self.lam) * u

    def drift(self, t, x, v):
        if self.kind == "constant":
            return _full(self.const[1], t, x, v)
        u = self._uniform("B", t, x, v)
        return -self.Lam + 2.0 * self.Lam * u

    def source(self, t, x, v):
        if self.kind == "constant":
            return _full(self.const[2], t, x, v)
        if self.s_amp == 0.0:
            return _full(0.0, t, x, v)
        u = self._uniform("S", t, x, v)
        return -self.s_amp + 2.0 * self.s_amp * u

    @property
    def source_sup(self) -> float:
        """Exact sup of |S| over all of phase space."""
        if self.kind == "constant":
            return abs(self.const[2])
        return self.s_amp

    def describe(self) -> dict:
        out = {
            "seed": self.seed,
            "lam": self.lam,
            "Lam": self.Lam,
            "cell_size": self.cell_size,
            "s_amp": self.s_amp,
            "kind": self.kind,
        }
        if self.kind == "constant":
            out["const"] = list(self.const)
        return out


def make_rough_coefficients(seed, lam=0.2, Lam=1.0, cell_size=0.05,
                            s_amp=0.0) -> CoefficientField:
    """Seeded measurable coefficient field within the ellipticity class."""
    return CoefficientField(seed=int(seed), lam=float(lam), Lam=float(Lam),
                            cell_size=float(cell_size), s_amp=float(s_amp))


def constant_coefficients(a=1.0, b=0.0, s=0.0) -> CoefficientField:
    """Spatially constant coefficients (A, B, S) = (a, b, s)."""
    return CoefficientField(seed=0, lam=float(a), Lam=float(a), cell_size=1.0,
                            s_amp=abs(float(s)), kind="constant",
                            const=(float(a), float(b), float(s)))
