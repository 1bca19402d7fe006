"""The benchmark's traced pass still finds every entry point it wraps.

perfbench/spans.py attributes time and counts to kfplab's layers by
patching named attributes (GridFunction.mask, CoefficientField.source,
the check_* names the CLI resolves, ...) from outside the package.  A
refactor that renames or bypasses one of them would silently zero a
per-layer counter; these tests fail instead.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

from kfplab import cli, experiments  # noqa: E402
from kfplab.estimates import lp_norm, source_l2  # noqa: E402
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
                (experiments, "convolve_representation")}
    assert expected <= set(points)
    checks = {name for owner, name in points if owner is cli}
    assert {"check_energy_estimate", "check_gain_integrability",
            "check_sobolev_gain", "check_linfty_bound"} <= checks


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
    slices = f.window(cyl)[0]
    assert metrics["grid.mask.calls"] == 1
    assert metrics["grid.mask.hit_ratio"] > 0
    assert metrics["geometry.contains.calls"] == slices.stop - slices.start
    assert metrics["coefficients.calls"] == 1
    assert metrics["coefficients.points"] == f.cells(cyl).count
