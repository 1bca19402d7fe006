"""The benchmark's traced pass still finds every entry point it wraps.

perfbench/spans.py attributes time and counts to kfplab's layers by
patching named attributes (GridFunction.mask, CoefficientField.source,
the check_* names the member path resolves, ...) from outside the package.  A
refactor that renames or bypasses one of them would silently zero a
per-layer counter; these tests fail instead.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = ROOT / "docs" / "example_config.json"
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

from kfplab import cli, experiments, kernel  # noqa: E402
from kfplab.estimates.norms import lp_norm, source_l2  # noqa: E402
from kfplab.geometry import Cylinder, make_cylinder  # noqa: E402
from kfplab.solver.coefficients import (CoefficientField,  # noqa: E402
                                        make_rough_coefficients)
from kfplab.solver.grid import GridFunction, sample_function  # noqa: E402


def test_traced_patches_every_entry_point_and_restores_it():
    rec = spans.Recorder()
    points = [(owner, name) for owner, name, _ in spans._entry_points(rec)]
    before = {key: key[0].__dict__[key[1]] for key in points}
    with spans.traced(rec):
        for (owner, name), original in before.items():
            assert owner.__dict__[name] is not original, name
    for (owner, name), original in before.items():
        assert owner.__dict__[name] is original, name

    expected = {(GridFunction, "mask"), (Cylinder, "contains"),
                (CoefficientField, "diffusion"), (CoefficientField, "drift"),
                (CoefficientField, "source"), (cli, "solve"),
                (cli, "weak_residual"), (experiments, "solve"),
                (experiments, "convolve_representation"),
                (kernel, "kolmogorov_g")}
    assert expected <= set(points)
    checks = {name for owner, name in points if owner is experiments}
    assert {"check_energy_estimate", "check_gain_integrability",
            "check_sobolev_gain", "check_linfty_bound"} <= checks


def test_traced_kernel_keeps_the_dimension_slot():
    # the tracer's wrapper calls the original as fn(t, x, v, d)
    untraced = kernel.kolmogorov_g(1.0, 0.0, 0.0)
    rec = spans.Recorder()
    with spans.traced(rec):
        traced = kernel.kolmogorov_g(1.0, 0.0, 0.0)
    assert traced == untraced
    metrics = spans.layer_metrics(rec.spans)
    assert metrics["kernel.g.calls"] == 1
    assert metrics["kernel.g.points"] == 1


def test_cell_sets_are_counted_through_the_traced_names():
    times = np.linspace(-1.0, 0.0, 21)
    xs = np.linspace(-2.0, 2.0, 40)
    vs = np.linspace(-2.0, 2.0, 40)
    f = sample_function(lambda t, x, v: 1.0 + x * v + 0.0 * t, times, xs, vs)
    coef = make_rough_coefficients(4, s_amp=0.1)
    cyl = make_cylinder("centered", (0.0, 0.0, 0.0), 0.8)
    rec = spans.Recorder()
    with spans.traced(rec):
        lp_norm(f, cyl, 2.0)
        source_l2(coef, f, cyl)
        source_l2(coef, f, cyl)
    metrics = spans.layer_metrics(rec.spans)
    # one mask build, testing membership one time slice at a time
    slices, wx, wv = f.window(cyl)
    assert metrics["grid.mask.calls"] == 1
    assert metrics["grid.mask.hit_ratio"] > 0
    assert metrics["geometry.contains.calls"] == slices.stop - slices.start
    # one source call per time cell of the window's slices, on the
    # window's (x, v) plane
    runs = np.unique(coef.time_cell(f.times[slices])).size
    assert metrics["coefficients.calls"] == runs
    assert metrics["coefficients.points"] == (runs * f.xs[wx].size
                                              * f.vs[wv].size)


def test_traced_cli_ensemble_records_its_march_and_every_check(tmp_path):
    data = json.loads(EXAMPLE.read_text())
    data["coefficients"]["seeds"] = [1]
    grid = data["grid"]
    rec = spans.Recorder()
    with spans.traced(rec), rec.root("cli"):
        cli.run(cli.ExperimentConfig.from_dict(data), out_dir=tmp_path)
    marches = [s for s in rec.spans if s.name == "march"]
    assert [s.counts["cell_steps"] for s in marches] == [
        grid["nx"] * grid["nv"] * grid["nt"]]
    metrics = spans.layer_metrics(rec.spans)
    assert metrics["checks.calls"] == len(data["checks"])
