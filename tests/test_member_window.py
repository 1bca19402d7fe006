"""A solve stores only the (x, v) window of cells its consumer reads.

run_member, through which the standard ensemble, its refined and
widened variants and the oscillation members run, passes solve the read_window of its checks' declared cylinders; for
kfplab verify it passes the weak basis's read window instead, and
run_solver_oracle the read_window of its cylinder.  Every report, error
text included, must be byte-identical to the same computation on the
whole-grid solve, whose geometry and extrema the cropped grid reports.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kfplab import cli, experiments
from kfplab.calibration import grid_tolerance
from kfplab.geometry import make_cylinder
from kfplab.solver.grid import centered_axis, sample_function
from kfplab.solver.march import solve
from kfplab.solver.weak import basis_read_window

EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "example_config.json"
# the demo grid, 96 x 48 cells over the standard box: dx = 5/96 is not
# dyadic, so a crop's own spacings drift from the whole grid's
DEMO = cli._member_config(cli.ExperimentConfig.from_dict(
    json.loads(EXAMPLE.read_text())))
# one whole 129 x 256 x 128 grid, the standard instance's and the
# oracle's at refine 1
WHOLE_GRID_BYTES = 129 * 256 * 128 * 8


@pytest.fixture
def member_pair(monkeypatch):
    """run(call, *args): call(*args) with experiments' solves storing
    the windows they are given, then storing the whole grid; returns
    (the two results, the cropped grid, the whole grid)."""
    def run(call, *args):
        results, grids = [], []
        for whole in (False, True):
            def recorded(*a, window=None, **kw):
                grids.append(solve(*a, window=None if whole else window,
                                   **kw))
                return grids[-1]

            monkeypatch.setattr(experiments, "solve", recorded)
            results.append(call(*args))
        return (*results, *grids)

    return run


def _reports_json(record) -> str:
    reports = record["reports"] if "reports" in record else [record["report"]]
    return json.dumps([r if isinstance(r, dict) else r.to_json_dict()
                       for r in reports], sort_keys=True)


def _assert_cropped_from(cropped, whole):
    """cropped stores a window of whole's cells and reports whole's
    geometry and extrema; whole's extrema are its values' min and max."""
    assert cropped.values.size < whole.values.size
    assert whole.extrema == (float(whole.values.min()),
                             float(whole.values.max()))
    assert cropped.extrema == whole.extrema
    for name in ("dt", "dx", "dv", "box", "safe_box", "cell_measure"):
        assert getattr(cropped, name) == getattr(whole, name), name
    assert all(np.array_equal(a, b)
               for a, b in zip(cropped.whole_axes, (whole.xs, whole.vs)))
    x0 = int(np.searchsorted(whole.xs, cropped.xs[0]))
    v0 = int(np.searchsorted(whole.vs, cropped.vs[0]))
    window = (slice(None), slice(x0, x0 + cropped.xs.size),
              slice(v0, v0 + cropped.vs.size))
    assert np.array_equal(cropped.xs, whole.xs[window[1]])
    assert np.array_equal(cropped.vs, whole.vs[window[2]])
    assert np.array_equal(cropped.values, whole.values[window])


def test_standard_member_reports_equal_the_whole_grid(member_pair,
                                                      tmp_path):
    cropped, whole, fc, fw = member_pair(
        experiments.run_member, experiments.STANDARD_CONFIG, 1)
    assert _reports_json(cropped) == _reports_json(whole)
    assert not any(isinstance(r, dict) for r in cropped["reports"])
    _assert_cropped_from(fc, fw)
    # the union window of the seven standard checks, v widened by one
    # cell per side
    assert (fc.xs.size, fc.vs.size) == (180 - 76, 84 - 44)
    assert fc.values.nbytes < fw.values.nbytes / 7
    with pytest.raises(ValueError, match="only a whole grid"):
        fc.to_binary(tmp_path / "cropped.kfp")


def test_oscillation_member_reports_equal_the_whole_grid(member_pair):
    cropped, whole, fc, fw = member_pair(experiments.run_oscillation_member,
                                         3)
    assert _reports_json(cropped) == _reports_json(whole)
    _assert_cropped_from(fc, fw)
    # the axes are not dyadic: the crop's own spacings are not the grid's
    assert np.any(np.diff(fc.xs) != fc.dx)
    assert np.any(np.diff(fc.vs) != fc.dv)


def test_failing_checks_raise_the_same_errors(member_pair):
    checks = [
        {"name": "energy_estimate"},
        # Q_1.6 leaves the safe box, and the grid in t and x
        {"name": "energy_estimate", "r": 0.5, "R": 1.6},
        # its cylinders do not build
        {"name": "linfty_bound", "r": 1.0, "R": 0.5, "zeta": 1.0},
    ]
    cropped, whole, fc, fw = member_pair(experiments.run_member,
                                         dict(DEMO, checks=checks), 2)
    assert _reports_json(cropped) == _reports_json(whole)
    errors = [r["error"] for r in cropped["reports"][1:]]
    assert errors[0].startswith("SafeRegionError: cylinder centered")
    assert errors[1] == ("ValueError: r must be below R, got r=1.0, "
                         "R=0.5")
    _assert_cropped_from(fc, fw)
    assert np.any(np.diff(fc.xs) != fc.dx)


def test_negative_values_outside_the_window_still_raise(member_pair):
    # a bump over a negative floor: the cells the Harnack checks read
    # stay within the grid tolerance of nonnegative, the rest of the
    # grid does not
    config = dict(DEMO, datum=dict(DEMO["datum"], floor=-0.1),
                  checks=[{"name": "harnack"}, {"name": "weak_harnack"}])
    cropped, whole, fc, fw = member_pair(experiments.run_member, config, 1)
    assert _reports_json(cropped) == _reports_json(whole)
    assert [r["error"] for r in cropped["reports"]] == [
        "ValueError: negative values beyond the grid tolerance: not a "
        f"nonnegative {what}" for what in ("solution", "super-solution")]
    tol = grid_tolerance(fc.dt, fc.dx, fc.dv)
    assert fc.values.min() > -tol > fc.extrema[0]
    _assert_cropped_from(fc, fw)


def _traced_peak(call, *args):
    """call(*args) and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_standard_member_peak_stays_below_one_whole_grid():
    # a member that stores the whole 129 x 256 x 128 grid peaks at about
    # twice its size (62.7 MiB); its checks' window is 4.1 MiB of it
    record, peak = _traced_peak(experiments.run_member,
                                experiments.STANDARD_CONFIG, 1)
    assert record["status"] == "ok"
    assert peak < WHOLE_GRID_BYTES


def test_verify_payload_equals_the_whole_grid(member_pair, tmp_path):
    config = cli.ExperimentConfig.from_dict(
        dict(json.loads(EXAMPLE.read_text()), kind="verify"))
    cropped, whole, fc, fw = member_pair(cli._run_verify, config, tmp_path)
    assert json.dumps(cropped, sort_keys=True) == json.dumps(
        whole, sort_keys=True)
    assert cropped[0] == 0
    _assert_cropped_from(fc, fw)
    # the stored cells are the weak basis's (x, v) read window, at every
    # slice
    window = (slice(None), *basis_read_window(fw)[1:])
    assert fc.values.shape == fw.values[window].shape == (51, 58, 22)
    assert np.any(np.diff(fc.xs) != fc.dx)


def test_oracle_result_equals_the_whole_grid(member_pair):
    cropped, whole, fc, fw = member_pair(experiments.run_solver_oracle, 1)
    assert cropped == whole
    _assert_cropped_from(fc, fw)
    assert fc.values.size < fw.values.size / 100


def test_oracle_peak_stays_below_one_whole_grid():
    # a whole-grid oracle solve peaks above the 129 x 256 x 128 grid it
    # stores (35.3 MiB); its cylinder's window is 0.06 MiB of it
    result, peak = _traced_peak(experiments.run_solver_oracle, 1)
    assert result["n_points"] == 480
    assert peak < WHOLE_GRID_BYTES


def test_transport_ladder_stores_the_datum_and_the_last_slice(monkeypatch):
    # the ladder's solves as it calls them, then storing every slice
    results, grids = [], []
    for every in (None, 1):
        def recorded(*a, store_every=1, **kw):
            grids.append(solve(*a, store_every=every or store_every, **kw))
            return grids[-1]

        monkeypatch.setattr(experiments, "solve", recorded)
        results.append(experiments.run_transport_convergence())
    assert results[0] == results[1]
    assert [g.times.size for g in grids[:3]] == [2, 2, 2]
    assert [g.times.size for g in grids[3:]] == [
        g.meta["nt"] + 1 for g in grids[3:]]


def test_read_window_is_the_union_with_a_v_margin():
    times = np.linspace(-1.0, 0.0, 9)
    xs = centered_axis(-1.0, 1.0, 12)
    vs = centered_axis(-2.0, 2.0, 20)
    f = sample_function(lambda t, x, v: 0.0 * (t + x + v), times, xs, vs)
    a = make_cylinder("centered", (0.0, -0.5, -0.4), 0.5)
    b = make_cylinder("centered", (-0.5, 0.3, 0.5), 0.3)
    assert f.window(a) == (slice(5, 9), slice(1, 5), slice(4, 11))
    assert f.window(b) == (slice(3, 6), slice(6, 9), slice(10, 15))
    # the union in t and x; in v widened by one cell per side
    assert f.read_window([a, b]) == (slice(3, 9), slice(1, 9),
                                     slice(3, 16))
    whole_tx = ((-1.0, 0.0), (-1.0, 1.0))
    # the low end is clipped at 0 ...
    low = f.read_window([(*whole_tx, (-2.5, -1.5))])
    assert low == (slice(0, 9), slice(0, 12), slice(0, 4))
    # ... and a stop past the axis end is clipped by slicing
    high = f.read_window([(*whole_tx, (1.5, 2.5))])
    assert high == (slice(0, 9), slice(0, 12), slice(16, 21))
    assert f.values[high].shape == (9, 12, 4)


def test_oscillation_member_raises_naming_itself(monkeypatch):
    def failing_solve(*args, **kwargs):
        raise FloatingPointError("no solve here")

    monkeypatch.setattr(experiments, "solve", failing_solve)
    with pytest.raises(RuntimeError) as err:
        experiments.run_oscillation_member(3)
    assert str(err.value) == ("oscillation member 3: FloatingPointError: "
                              "no solve here")
