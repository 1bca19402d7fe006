"""Pinned calibration data: pass bounds and grid-tolerance constant.

The packaged data/calibration.json is produced by
scripts/make_calibration.py from a fixed ensemble of rough-coefficient
runs; checkers compare empirical constants against these bounds (which
were set at twice the worst calibrated value, worst_constants of the
calibration workloads' reports).  A missing file raises: without it
no calibrated statement would have a bound to fail against.
"""

from __future__ import annotations

import importlib.resources
import json
from functools import lru_cache

__all__ = ["load_calibration", "grid_tolerance", "pass_bound",
           "worst_constants"]


@lru_cache(maxsize=1)
def load_calibration() -> dict:
    """The packaged data/calibration.json; FileNotFoundError when it is
    missing."""
    path = importlib.resources.files("kfplab").joinpath(
        "data/calibration.json")
    return json.loads(path.read_text())


def grid_tolerance(dt, dx, dv) -> float:
    """Discretization tolerance C_tol * (dt + dx^2 + dv^2).

    First order in time (backward Euler splitting), second order in the
    x and v cell sizes.
    """
    c_tol = load_calibration()["c_tol"]
    return float(c_tol) * (float(dt) + float(dx) ** 2 + float(dv) ** 2)


def pass_bound(statement_id):
    """Calibrated empirical-constant bound for one estimate id, or None."""
    return load_calibration()["pass_bounds"].get(statement_id)


def worst_constants(reports) -> dict:
    """Largest empirical constant per statement id over the reports;
    reports without a constant are skipped."""
    worst = {}
    for report in reports:
        c = report.empirical_constant
        if c is not None:
            sid = report.statement_id
            worst[sid] = max(worst.get(sid, 0.0), float(c))
    return worst
