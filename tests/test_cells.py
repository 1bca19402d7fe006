"""The cell set of a cylinder: built once per grid function and cylinder.

One standard check pass measures seven statements on the same nested
pair Q_r inside Q_R, so the masks of those two cylinders are built once
and the source is sampled on the Q_R cells once per member, on the one
member path (experiments.run_member) the CLI and the experiments share.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kfplab import cli, experiments
from kfplab.estimates import (band_fraction, inf_on, level_set_fraction,
                              lp_norm, sup_on)
from kfplab.estimates.checks import STATEMENTS, check_oscillation_decay
from kfplab.geometry import make_cylinder
from kfplab.solver.coefficients import (CoefficientField,
                                        make_rough_coefficients)
from kfplab.solver.grid import (SOURCE_CHUNK, GridFunction,
                                InsufficientResolutionError, SafeRegionError,
                                sample_function)

EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_config.json"
STANDARD_CHECKS = experiments.STANDARD_CONFIG["checks"]
Q_BIG = STATEMENTS["energy_estimate"].cylinders()[1]
LATTICE_POINTS = 12 ** 3  # source_sup's lattice


@pytest.fixture(scope="module")
def member():
    """The demo config's member sections with the standard checks, and
    its seed-3 solve and coefficients."""
    config = cli._member_config(cli.ExperimentConfig.from_dict(
        json.loads(EXAMPLE.read_text())), STANDARD_CHECKS)
    record = experiments.run_member(dict(config, checks=[]), 3)
    return config, record["solution"], record["coefficients"]


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
    return sorted([f.cells(Q_BIG).count, LATTICE_POINTS, LATTICE_POINTS])


def _member_reports(config, f, monkeypatch):
    """run_member's reports on config, its solve replaced by f."""
    monkeypatch.setattr(experiments, "solve", lambda *args, **kwargs: f)
    reports = experiments.run_member(config, 3)["reports"]
    assert len(reports) == len(STANDARD_CHECKS)
    assert not any(isinstance(r, dict) for r in reports)
    return [r.to_json_dict() for r in reports]


def test_standard_pass_builds_each_cylinder_once(member, calls,
                                                 monkeypatch):
    config, solved, _ = member
    f = _fresh(solved)
    first = _member_reports(config, f, monkeypatch)
    assert sorted(calls["mask"]) == [0.5, 1.0]
    assert sorted(calls["source"]) == _expected_source_calls(f)

    # a second pass on the same grid function builds and samples nothing
    # new and reports the same numbers
    calls["mask"].clear()
    calls["source"].clear()
    second = _member_reports(config, f, monkeypatch)
    assert calls["mask"] == []
    assert calls["source"] == [LATTICE_POINTS, LATTICE_POINTS]
    assert json.dumps(second, sort_keys=True) == json.dumps(first,
                                                            sort_keys=True)


def test_cli_member_builds_each_cylinder_once(member, calls, monkeypatch,
                                              tmp_path):
    _, solved, _ = member
    f = _fresh(solved)
    monkeypatch.setattr(experiments, "solve", lambda *args, **kwargs: f)
    data = dict(json.loads(EXAMPLE.read_text()), checks=STANDARD_CHECKS)
    data["coefficients"]["seeds"] = [3]
    cli.run(cli.ExperimentConfig.from_dict(data), out_dir=tmp_path)
    member, = json.loads((tmp_path / "reports.json").read_text())["members"]
    assert len(member["reports"]) == len(STANDARD_CHECKS)
    assert "errors" not in member
    # the CLI builds new cylinder objects for every check; the memo keys
    # on what they contain, so each cylinder is built once on the grid
    # validation counts cells on and once on the solution
    assert sorted(calls["mask"]) == [0.5, 0.5, 1.0, 1.0]
    assert sorted(calls["source"]) == _expected_source_calls(f)


def test_cells_match_the_window_and_mask(member):
    _, solved, coef = member
    f = _fresh(solved)
    cyl = Q_BIG
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
        check_oscillation_decay(
            f, coef, **STATEMENTS["oscillation_decay"].parameters({}))


def test_extrema_and_fractions_copy_no_cell_values():
    # sup, inf and the level-set fractions reduce over the window under
    # the mask: together they allocate less than one float per cell
    f = sample_function(lambda t, x, v: np.sin(3.0 * x) * v + 0.1 * t,
                        np.linspace(-1.0, 0.0, 60), np.linspace(-1.2, 1.2, 400),
                        np.linspace(-1.2, 1.2, 200))
    cyl = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    cells = f.cells(cyl)
    vals = cells.values
    tracemalloc.start()
    try:
        got = (sup_on(f, cyl), inf_on(f, cyl),
               level_set_fraction(f, cyl, "ge", 0.1),
               band_fraction(f, cyl, -0.2, 0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cells.count * 8
    assert got == (float(vals.max()), float(vals.min()),
                   float(np.mean(vals >= 0.1)),
                   float(np.mean((vals > -0.2) & (vals < 0.3))))


def test_source_chunks_equal_one_call_bitwise(calls):
    f = sample_function(lambda t, x, v: 0.0 * t,
                        np.linspace(-1.0, 0.0, 30), np.linspace(-1.2, 1.2, 100),
                        np.linspace(-1.2, 1.2, 100))
    coef = make_rough_coefficients(5, cell_size=0.05, s_amp=0.3)
    cells = f.cells(make_cylinder("centered", (0.0, 0.0, 0.0), 1.0))
    full, rest = divmod(cells.count, SOURCE_CHUNK)
    assert full >= 2 and rest > 0
    got = cells.source(coef)
    assert calls["source"] == [SOURCE_CHUNK] * full + [rest]
    whole = coef.source(*cells.centers())
    assert got.dtype == whole.dtype
    assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))
