"""The cell set of a cylinder: built once per grid function and cylinder.

One standard check pass measures seven statements on the same nested
pair Q_r inside Q_R, so the masks of those two cylinders are built once
and the source is sampled on the Q_R cells once, whether the pass runs
through experiments.standard_checks or through the CLI.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from kfplab import cli, experiments
from kfplab.estimates import InsufficientResolutionError, lp_norm
from kfplab.estimates.checks import check_oscillation_decay
from kfplab.geometry import make_cylinder
from kfplab.solver.coefficients import CoefficientField
from kfplab.solver.grid import GridFunction, SafeRegionError

EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_config.json"
STANDARD_CHECKS = [
    {"name": "energy_estimate"},
    {"name": "gain_integrability", "p": 2.0},
    {"name": "gain_integrability", "p": 2.4},
    {"name": "sobolev_gain", "sigma": 0.1},
    {"name": "sobolev_gain", "sigma": 0.25},
    {"name": "linfty_bound", "zeta": 0.5},
    {"name": "linfty_bound", "zeta": 2.0},
]
LATTICE_POINTS = 12 ** 3  # source_sup's default lattice


@pytest.fixture(scope="module")
def member():
    """A demo-grid solve of seed 3 and its coefficients."""
    config = cli.ExperimentConfig.from_dict(
        dict(json.loads(EXAMPLE.read_text()), checks=STANDARD_CHECKS))
    f, coef = cli._solve_member(config, 3)
    return config, f, coef


def _fresh(f):
    """The same grid function without any memoised cell set."""
    return dataclasses.replace(f)


@pytest.fixture
def calls(monkeypatch):
    """Record every mask build and the point count of every source call."""
    seen = {"mask": [], "source": []}
    mask, source = GridFunction.mask, CoefficientField.source

    def counting_mask(self, cyl):
        seen["mask"].append(cyl.eff_radius)
        return mask(self, cyl)

    def counting_source(self, t, x, v):
        seen["source"].append(int(np.broadcast(t, x, v).size))
        return source(self, t, x, v)

    monkeypatch.setattr(GridFunction, "mask", counting_mask)
    monkeypatch.setattr(CoefficientField, "source", counting_source)
    return seen


def _expected_source_calls(f):
    q_big = experiments.standard_cylinders()[1]
    return sorted([f.cells(q_big).count, LATTICE_POINTS, LATTICE_POINTS])


def test_standard_pass_builds_each_cylinder_once(member, calls):
    _, solved, coef = member
    f = _fresh(solved)
    first = [r.to_json_dict() for r in experiments.standard_checks(f, coef)]
    assert sorted(calls["mask"]) == [0.5, 1.0]
    expected = _expected_source_calls(f)
    assert sorted(calls["source"]) == expected

    # a second pass on the same grid function builds and samples nothing
    # new and reports the same numbers
    calls["mask"].clear()
    calls["source"].clear()
    second = [r.to_json_dict() for r in experiments.standard_checks(f, coef)]
    assert calls["mask"] == []
    assert calls["source"] == [LATTICE_POINTS, LATTICE_POINTS]
    assert json.dumps(second, sort_keys=True) == json.dumps(first,
                                                            sort_keys=True)


def test_cli_member_builds_each_cylinder_once(member, calls, monkeypatch):
    config, solved, coef = member
    f = _fresh(solved)
    monkeypatch.setattr(cli, "_solve_member", lambda config, seed: (f, coef))
    reports = cli._member_reports(config, 3)
    assert len(reports) == len(STANDARD_CHECKS)
    assert not any(isinstance(r, dict) for r in reports)
    # the CLI builds new cylinder objects for every check; the memo keys
    # on what they contain
    assert sorted(calls["mask"]) == [0.5, 1.0]
    assert sorted(calls["source"]) == _expected_source_calls(f)


def test_cells_match_the_window_and_mask(member):
    _, solved, coef = member
    f = _fresh(solved)
    cyl = experiments.standard_cylinders()[1]
    cells = f.cells(cyl)
    window, mask = f.window(cyl), f.mask(cyl)
    assert cells.count == int(mask.sum())
    assert np.array_equal(cells.values, f.values[window][mask])
    centers = [axis[w][i] for axis, w, i in
               zip((f.times, f.xs, f.vs), window, np.nonzero(mask))]
    assert all(np.array_equal(a, b) for a, b in zip(cells.centers(), centers))
    assert np.array_equal(cells.source(coef), coef.source(*centers))
    # equal cylinders built apart share one cell set
    assert f.cells(make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)) is cells


def test_failures_are_not_memoised(member):
    _, solved, _ = member
    f = _fresh(solved)
    outside = make_cylinder("centered", (0.0, 0.0, 0.0), 2.0)
    for _ in range(2):
        with pytest.raises(SafeRegionError):
            f.cells(outside)
    assert f._cells == {}

    tiny = make_cylinder("centered", (0.0, 0.01, 0.01), 1e-3)
    for _ in range(2):
        with pytest.raises(InsufficientResolutionError,
                           match="^cylinder holds 0 cells, need at least 1$"):
            lp_norm(f, tiny, 2.0)
    assert f.cells(tiny, minimum=0).count == 0


def test_oscillation_resolution_message_unchanged(member):
    _, solved, coef = member
    f = _fresh(solved)
    with pytest.raises(InsufficientResolutionError,
                       match="^oscillation cylinder at level 1 holds 0 "
                             "cells$"):
        check_oscillation_decay(f, coef)
