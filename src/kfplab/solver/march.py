"""Time marching for the kinetic equation with rough coefficients.

    df/dt + v df/dx = d/dv (A df/dv) + B df/dv + S

One step is a Strang split T(dt/2) D(dt) T(dt/2):

* T: semi-Lagrangian transport in x, per velocity row, with exact
  integer shifting plus cubic Lagrange interpolation of the fractional
  remainder; periodic in x; unconditionally stable.
* D: backward Euler in v with the diffusion in flux form (harmonic
  face averages of A, zero-flux walls) and the drift upwinded, so the
  implicit matrix is an M-matrix and the step is monotone; the source
  enters this stage as + dt S.

Coefficients are sampled at the step midpoint time.  A field depends
on t only through its time cell (CoefficientField.time_cell), so it is
sampled, and the v-matrix forward-eliminated, once per run of midpoints
in one time cell (time_cell_runs); each step of the run reuses those
factors and runs only the Thomas sweeps.  Constants are invariant up to
roundoff, and without drift and diffusion of structure the scheme
reduces to exact advection of whole-cell shifts.

Inside solve the state and the v-factors are velocity-major (nv, nx)
C-order arrays, so each step of the forward elimination and of both
Thomas sweeps works on one contiguous velocity row.  The stored slices
keep the (t, x, v) layout of GridFunction.

The transport and the Thomas sweeps run as compiled kernels (march.c),
built with the weak residual's (weak.c) into one library by the system
C compiler on first use in a process, and loaded through ctypes
(_library, kernel_path).  The numpy functions _transport and _v_solver
are their bitwise reference, and solve's path on a host where the
kernels cannot be built or loaded.  The reference transport groups the
rows by their integer shift k (monotone in v, so each group is a
contiguous row range) and reads each group's four stencil columns as
slices of a periodically padded copy of the state; the compiled one
wraps the indices of each row instead.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientField, time_cell_runs
from .grid import Box, GridFunction, centered_axis

__all__ = ["CFL_LIMIT", "CFLViolationError", "SolverDivergenceError",
           "SolveAxes", "solve_axes", "solve_grid", "solve",
           "transport_weights", "kernel_path", "fit_order"]

# advective CFL allowance of solve, read at each call
CFL_LIMIT = 4.0
CHECK_EVERY = 25  # steps between solve's finiteness checks, and the last

# the C sources of the one library of compiled kernels
_SOURCES = (Path(__file__).with_name("march.c"),
            Path(__file__).with_name("weak.c"))
# No multiply-add may be fused, or the kernels stop being bitwise the
# numpy reference; no -march, since a library cached in a shared home
# may be loaded on another CPU.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


class SolveAxes(NamedTuple):
    """The grid solve marches on: its slice times and cell centers, the
    steps, and the largest speed in the box."""

    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    dt: float
    dx: float
    dv: float
    v_max: float

    @property
    def cfl(self) -> float:
        """Advective CFL number dt max|v| / dx."""
        return self.dt * self.v_max / self.dx


def solve_axes(box: Box, nx, nv, nt) -> SolveAxes:
    """solve's axes and steps for a box and grid sizes (each >= 2)."""
    xs = centered_axis(box.x0, box.x1, nx)
    vs = centered_axis(box.v0, box.v1, nv)
    dt = (box.t1 - box.t0) / nt
    return SolveAxes(box.t0 + np.arange(nt + 1) * dt, xs, vs, dt,
                     float(xs[1] - xs[0]), float(vs[1] - vs[0]),
                     max(abs(box.v0), abs(box.v1)))


def solve_grid(box: Box, nx, nv, nt, pad_x, pad_v) -> GridFunction:
    """The grid solve would return (axes, pads, box), over broadcast zeros."""
    axes = solve_axes(box, nx, nv, nt)
    return GridFunction(axes.times, axes.xs, axes.vs,
                        np.broadcast_to(0.0, (nt + 1, nx, nv)),
                        pad_x=pad_x, pad_v=pad_v, solve_box=box)


class CFLViolationError(ValueError):
    """Requested step exceeds the advective CFL allowance CFL_LIMIT."""

    def __init__(self, axes: SolveAxes):
        dt, dx, v_max = axes.dt, axes.dx, axes.v_max
        self.payload = {
            "error": "cfl_violation",
            "dt": dt, "dx": dx, "v_max": v_max,
            "cfl": axes.cfl, "cfl_limit": CFL_LIMIT,
        }
        super().__init__(
            f"dt {dt:.3e} gives CFL {axes.cfl:.2f} > limit "
            f"{CFL_LIMIT:.2f} (dx {dx:.3e}, v_max {v_max:.3f})")


class SolverDivergenceError(RuntimeError):
    """Non-finite values appeared during the march."""

    def __init__(self, step, time):
        self.step = step
        self.time = time
        super().__init__(f"solver diverged at step {step} (t = {time:.6g})")


def transport_weights(vs, shift_time, dx):
    """Integer shifts and cubic weights for one transport substep.

    Departure points x - v * shift_time are split into an exact integer
    cell shift k and a fractional part interpolated with the 4-point
    Lagrange cubic.  The new value at cell i of velocity row j is
    sum over m in (-2, -1, 0, 1) of weights[m + 2][j] * f[i - k[j] + m, j],
    periodic in x.  The center weight is defined as one minus the other
    three, so the weights sum to 1 up to a single rounding and constants
    drift only at roundoff level per step.
    """
    s = np.asarray(vs, float) * shift_time / dx
    k = np.floor(s).astype(np.int64)
    theta = s - k
    xi = -theta
    w_m2 = (xi - xi**3) / 6.0
    w_m1 = (xi + 2.0) * xi * (xi - 1.0) / 2.0
    w_p1 = (xi + 2.0) * (xi + 1.0) * xi / 6.0
    w_0 = 1.0 - (w_m2 + w_m1 + w_p1)
    return k, [w_m2, w_m1, w_0, w_p1]


def _transport(k, weights, nx):
    """Transport of an (nv, nx) state by shifted slices of a padded copy.

    The state is copied once per call into a buffer padded periodically
    by 2 + max|k| columns on each side (one wrapping gather, so any nx
    works); every run of rows sharing one shift k then reads its four
    stencil columns as plain slices of its rows.  k is monotone in v,
    so each run is a contiguous row range.
    """
    pad = 2 + int(np.abs(k).max())
    padded = np.arange(-pad, nx + pad)
    buf = np.empty((k.size, nx + 2 * pad))
    cuts = [0, *(np.flatnonzero(np.diff(k)) + 1), k.size]
    # rows r0:r1, the padded column of their m = -2 stencil cell, weights
    groups = [(r0, r1, pad - k[r0] - 2, [w[r0:r1, None] for w in weights])
              for r0, r1 in zip(cuts, cuts[1:])]

    def apply(f):
        np.take(f, padded, axis=1, out=buf, mode="wrap")
        out = np.empty_like(f)
        for r0, r1, c, w in groups:
            rows = buf[r0:r1]
            acc = out[r0:r1]
            np.multiply(w[0], rows[:, c:c + nx], out=acc)
            for m in range(1, 4):
                acc += w[m] * rows[:, c + m:c + m + nx]
        return out

    return apply


def _v_factors(coef, t_mid, xs, vs, dv, dt):
    """Backward-Euler v-matrix at t_mid, forward-eliminated once.

    Returns (lower, denom, cp, ds): the sub-diagonal, the Thomas pivots
    and upper multipliers, and dt * S, all of shape (nv, nx) (a field
    that returns a smaller array, as a constant one may, is broadcast).
    """
    nv, nx = vs.size, xs.size
    X = xs[None, :]
    V = vs[:, None]
    # harmonic mean of the cell diffusivities on interior v-faces
    a_cell = np.asarray(coef.diffusion(t_mid, X, V), float)
    a_face = np.zeros((nv + 1, nx))
    al = a_cell[:-1]
    ar = a_cell[1:]
    a_face[1:-1] = 2.0 * al * ar / (al + ar)
    b = np.asarray(coef.drift(t_mid, X, V), float)
    s = np.asarray(coef.source(t_mid, X, V), float)

    pos_b = np.maximum(b, 0.0)
    neg_b = np.maximum(-b, 0.0)
    # the upwind side is outside the grid at the walls: drop that part
    pos_b[-1] = 0.0
    neg_b[0] = 0.0

    r = dt / dv**2
    q = dt / dv
    lower = -(r * a_face[:-1] + q * neg_b)
    upper = -(r * a_face[1:] + q * pos_b)
    diag = 1.0 + r * (a_face[:-1] + a_face[1:]) + q * (pos_b + neg_b)

    # forward elimination in place, one velocity row per step: diag
    # becomes the pivots and upper the multipliers
    denom, cp = diag, upper
    cp[0] /= denom[0]
    for d, c, c_prev, lo in zip(denom[1:], cp[1:], cp, lower[1:]):
        d -= lo * c_prev
        c /= d
    return [np.broadcast_to(a, (nv, nx)) for a in (lower, denom, cp, dt * s)]


def _v_solver(lower, denom, cp, ds):
    """Backward-Euler v-step on one set of pre-eliminated factors, as a
    function of the state: Thomas sweeps, one contiguous velocity row
    per step."""

    def apply(f):
        u = f + ds
        rows = list(u)
        rows[0] /= denom[0]
        for prev, row, lo, d in zip(rows, rows[1:], lower[1:], denom[1:]):
            row -= lo * prev
            row /= d
        for nxt, row, c in zip(rows[::-1], rows[-2::-1], cp[-2::-1]):
            row -= c * nxt
        return u

    return apply


def _library(flags=CFLAGS):
    """_SOURCES, built into one library with the C compiler cc on PATH
    and loaded.

    The library is cached in $XDG_CACHE_HOME/kfplab, else
    ~/.cache/kfplab, under the sha256 of the sources, the flags and the
    size and mtime of the compiler, so a cache hit starts no process.
    A build goes to a temporary file in the cache and is renamed into
    place, so processes building at once each load a whole library.
    Raises OSError (no compiler, an unwritable cache, a library that
    does not load), subprocess.SubprocessError (a failed build) or
    RuntimeError (no home directory).
    """
    import hashlib
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler cc on PATH")
    compiler = os.stat(cc)
    key = hashlib.sha256()
    for source in _SOURCES:
        key.update(source.read_bytes())
    key.update(repr((flags, compiler.st_size,
                     compiler.st_mtime_ns)).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "kfplab"
    path = cache / f"kernels-{key.hexdigest()[:32]}.so"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=cache)
        os.close(fd)
        try:
            subprocess.run([cc, *flags, "-o", tmp, *map(str, _SOURCES)],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    return ctypes.CDLL(str(path))


class _Kernel:
    """A march.c kernel bound to the arrays it reads, called on the
    (nv, nx) state: out = kernel(nv, nx, *arrays, state).

    ctypes checks nothing, so the arrays come C-contiguous and of the
    exact shape and dtype the kernel reads, each call checks the state,
    and the arrays live as long as the kernel does.
    """

    def __init__(self, fn, shape, arrays):
        self.fn, self.shape, self.arrays = fn, shape, arrays
        self.args = (*shape, *(a.ctypes.data for a in arrays))

    def __call__(self, f):
        if (f.shape != self.shape or f.dtype != np.float64
                or not f.flags.c_contiguous):
            raise ValueError(f"the state must be a C-contiguous float64 "
                             f"array of shape {self.shape}")
        out = np.empty_like(f)
        self.fn(*self.args, f.ctypes.data, out.ctypes.data)
        return out


@functools.cache
def _compiled(lib):
    """(transport, v_solver) over a library of march.c, called as
    _transport and _v_solver are; bound once per library."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.kfp_transport.argtypes = (i64, i64) + (ptr,) * 7
    lib.kfp_v_solve.argtypes = (i64, i64) + (ptr,) * 6
    lib.kfp_transport.restype = lib.kfp_v_solve.restype = None

    def c_array(a, shape, dtype=np.float64):
        return np.ascontiguousarray(np.broadcast_to(np.asarray(a, dtype),
                                                    shape))

    def transport(k, weights, nx):
        if nx < 1:  # the kernel takes indices mod nx
            raise ValueError(f"transport needs nx >= 1, got {nx}")
        nv = np.size(k)
        arrays = [c_array(k, (nv,), np.int64),
                  *(c_array(w, (nv,)) for w in weights)]
        return _Kernel(lib.kfp_transport, (nv, nx), arrays)

    def v_solver(lower, denom, cp, ds):
        nv, nx = np.shape(lower)
        return _Kernel(lib.kfp_v_solve, (nv, nx),
                       [c_array(a, (nv, nx)) for a in (lower, denom, cp, ds)])

    return transport, v_solver


@functools.cache
def _kernel_library():
    """The library of compiled kernels, built and loaded once per
    process, or None where it cannot be built or loaded."""
    import subprocess

    try:
        return _library()
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None


def kernel_path() -> str:
    """Which kernels solve and weak_residual run: "compiled" or "numpy"."""
    return "numpy" if _kernel_library() is None else "compiled"


def _march_kernels():
    """solve's (transport, v_solver) factories: the compiled kernels, or
    the numpy reference where they cannot be built or loaded."""
    lib = _kernel_library()
    return (_transport, _v_solver) if lib is None else _compiled(lib)


def solve(f0, coef: CoefficientField, box: Box, nx, nv, nt, *, pad_x=1.0,
          pad_v=2.0, store_every=1, window=None) -> GridFunction:
    """March the kinetic equation on the box and return stored slices.

    f0 is a callable f0(x, v) on the cell centers; store_every thins
    the stored time slices (nt must be divisible by it).  The padding
    declares the boundary-contaminated strip recorded on the result.
    Steps whose advective CFL number exceeds CFL_LIMIT are refused; the
    interpolation itself is stable at any CFL, the limit only guards
    accuracy.  A non-finite state raises SolverDivergenceError.

    window, an (x, v) pair of index slices of solve_axes' xs and vs,
    stores only those cells of each slice (None: the whole grid).  The
    march always runs on the whole grid, and the result reports the
    whole grid's geometry and the extrema of all its stored values
    (GridFunction.whole_axes, recorded_extrema), so any quantity on
    cells inside the window is bitwise that of a whole-grid solve.
    """
    axes = solve_axes(box, nx, nv, nt)
    xs, vs, dt, dx, dv = axes.xs, axes.vs, axes.dt, axes.dx, axes.dv
    if axes.cfl > CFL_LIMIT:
        raise CFLViolationError(axes)
    if nt % store_every != 0:
        raise ValueError("store_every must divide nt")

    f = np.asarray(f0(xs[:, None], vs[None, :]), dtype=float)
    # the march keeps the state velocity-major, (nv, nx)
    f = np.ascontiguousarray(np.broadcast_to(f, (nx, nv)).T)

    make_transport, v_solver = _march_kernels()
    transport = make_transport(*transport_weights(vs, 0.5 * dt, dx), nx)
    t_mids = box.t0 + (np.arange(nt) + 0.5) * dt

    wx, wv = window or (slice(None), slice(None))
    values = np.empty((nt // store_every + 1, xs[wx].size, vs[wv].size))
    lows = np.empty(values.shape[0])
    highs = np.empty(values.shape[0])

    def store(k, state):
        values[k] = state[wv, wx].T
        lows[k], highs[k] = state.min(), state.max()

    store(0, f)
    for start, stop in time_cell_runs(coef, t_mids):
        v_solve = v_solver(*_v_factors(coef, float(t_mids[start]), xs, vs,
                                       dv, dt))
        for n in range(start, stop):
            f = transport(f)
            f = v_solve(f)
            f = transport(f)
            if (n + 1) % CHECK_EVERY == 0 or n + 1 == nt:
                if not np.all(np.isfinite(f)):
                    raise SolverDivergenceError(n + 1, box.t0 + (n + 1) * dt)
            if (n + 1) % store_every == 0:
                store((n + 1) // store_every, f)

    meta = {
        "scheme": "strang_semilag_backward_euler",
        "coefficients": coef.describe(),
        "nx": nx, "nv": nv, "nt": nt,
        "dt": dt, "dx": dx, "dv": dv,
        "cfl": axes.cfl,
        "store_every": store_every,
    }
    return GridFunction(axes.times[::store_every], xs[wx], vs[wv], values,
                        pad_x=pad_x, pad_v=pad_v, solve_box=box, meta=meta,
                        whole_axes=(xs, vs),
                        recorded_extrema=(float(lows.min()),
                                          float(highs.max())))


def fit_order(hs, errors):
    """Least-squares slope of log error against log resolution."""
    hs = np.asarray(hs, float)
    errors = np.asarray(errors, float)
    if np.any(errors <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("fit_order needs positive step sizes and errors")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)
