"""Acceptance suite: one test per shipped guarantee, numbered 01-11.

Each test pins the tolerances it enforces; heavy solver runs are shared
through module-scoped fixtures.  Calibrated pass bounds live in
src/kfplab/data/calibration.json (twice the worst value observed on the
frozen calibration workloads, regenerated by scripts/make_calibration.py);
a last test refolds the worst values from the fixtures' reports, so no
reported constant moves without a rerun of that script.
"""

import math
import time

import numpy as np
import pytest

from kfplab import experiments
from kfplab.calibration import load_calibration, worst_constants
from kfplab.estimates.constants import explicit_constants
from kfplab.geometry import (
    PhasePoint,
    compose,
    inverse,
    make_cylinder,
    vitali_inclusion_check,
)
from kfplab.kernel import kernel_mass

# frozen regression tuple (r0, eps, theta, nu, mu, alpha) at
# delta1 = delta2 = 1/2 with zero source, 12 significant digits
PINNED_TUPLE = (
    "0.05",
    "9.53674316406e-11",
    "7.17464813734e-79",
    "4.5917748079e-77",
    "4.40242779679e-170182996035694691901972359440371892418755720140815055515"
    "9893471579226729338123",
    "7.34783250769e-170182996035694691901972359440371892418755720140815055515"
    "9893471579226729338124",
)

GAIN_IDS = (
    "gain_integrability[p=2]",
    "gain_integrability[p=2.4]",
    "sobolev_gain[sigma=0.1]",
    "sobolev_gain[sigma=0.25]",
    "linfty_bound[zeta=0.5]",
    "linfty_bound[zeta=2]",
)


@pytest.fixture(scope="module")
def kernel_suite():
    return experiments.run_kernel_suite()


@pytest.fixture(scope="module")
def oracle_study():
    t0 = time.perf_counter()
    study = experiments.run_solver_oracle_study()
    study["elapsed"] = time.perf_counter() - t0
    return study


@pytest.fixture(scope="module")
def ensemble():
    return experiments.run_standard_ensemble()


@pytest.fixture(scope="module")
def refinement_pairs(ensemble):
    return experiments.run_refinement_pairs(ensemble)


@pytest.fixture(scope="module")
def mixing():
    return experiments.run_mixing_instance()


@pytest.fixture(scope="module")
def counterexample():
    return experiments.run_counterexample()


@pytest.fixture(scope="module")
def harnack_suite():
    return experiments.run_harnack_suite()


@pytest.fixture(scope="module")
def poincare():
    return experiments.run_poincare()


@pytest.fixture(scope="module")
def oscillation_study():
    return experiments.run_oscillation_study()


def _by_statement(reports):
    return {r.statement_id: r for r in reports}


def test_criterion_01_kernel_normalization():
    t0 = time.perf_counter()
    errors = {t: abs(kernel_mass(t) - 1.0) for t in (0.01, 1.0, 100.0)}
    elapsed = time.perf_counter() - t0
    assert all(err <= 1e-6 for err in errors.values()), errors
    assert elapsed < 10.0


def test_criterion_02_kernel_pde_residual(kernel_suite):
    ratio = kernel_suite["residual_ratio"]
    assert 3.2 <= ratio <= 4.8, ratio
    assert kernel_suite["control_factor"] >= 10.0


def test_criterion_03_solver_vs_kernel_oracle(oracle_study):
    assert oracle_study["base"]["sup_rel_error"] <= 0.05
    assert oracle_study["ratio"] >= 1.7
    assert oracle_study["elapsed"] < 300.0


def test_criterion_04_group_geometry_properties():
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-10.0, 10.0, size=(10_000, 9))
    worst = 0.0
    for row in pts:
        a = PhasePoint(row[0], row[1], row[2])
        b = PhasePoint(row[3], row[4], row[5])
        c = PhasePoint(row[6], row[7], row[8])
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        ident = compose(a, inverse(a))
        worst = max(worst,
                    abs(left.t - right.t), abs(left.x - right.x),
                    abs(left.v - right.v),
                    abs(ident.t), abs(ident.x), abs(ident.v))
    assert worst <= 1e-12, worst

    n_intersecting = 0
    for _ in range(10_000):
        r2 = 10.0 ** rng.uniform(math.log10(0.02), math.log10(0.25))
        r1 = r2 * rng.uniform(0.3, 2.0)  # radius hypothesis holds
        t2 = rng.uniform(-1.0, 1.0)
        x2 = rng.uniform(-1.0, 1.0)
        v2 = rng.uniform(-1.5, 1.5)
        dt = rng.uniform(-12.0, 12.0) * r2 ** 2
        v1 = v2 + rng.uniform(-8.0, 8.0) * r2
        x1 = x2 + dt * v2 + rng.uniform(-150.0, 150.0) * r2 ** 3
        c1 = make_cylinder("covering", (t2 + dt, x1, v1), r1)
        c2 = make_cylinder("covering", (t2, x2, v2), r2)
        report = vitali_inclusion_check(c1, c2)
        assert report.holds, (c1.describe(), c2.describe())
        if report.intersects:
            n_intersecting += 1
            assert report.included
    assert n_intersecting >= 500  # the sample genuinely exercises inclusion

    q1 = make_cylinder("centered", (0.0, 0.0, 0.0), 1.0)
    for r in (0.5, 0.37, 1.0 / 3.0, 2.0, 0.025):
        qr = make_cylinder("centered", (0.0, 0.0, 0.0), r)
        assert qr.volume() == r ** 6 * q1.volume()  # exact, not approximate


def test_criterion_05_energy_estimate(ensemble, refinement_pairs):
    for member in ensemble:
        report = _by_statement(member["reports"])["energy_estimate"]
        assert report.hypotheses_met
        assert report.passed is True, (member["seed"],
                                       report.empirical_constant,
                                       report.pass_bound)
    for pair in refinement_pairs:
        ratio = pair["ratios"]["energy_estimate"]
        assert 0.5 <= ratio <= 1.5, (pair["seed"], ratio)


def test_criterion_06_integral_gains(ensemble, refinement_pairs):
    for member in ensemble:
        by_id = _by_statement(member["reports"])
        for sid in GAIN_IDS:
            report = by_id[sid]
            assert report.hypotheses_met
            assert report.passed is True, (member["seed"], sid,
                                           report.empirical_constant,
                                           report.pass_bound)
    for pair in refinement_pairs:
        for sid in GAIN_IDS:
            ratio = pair["ratios"][sid]
            assert 0.5 <= ratio <= 1.5, (pair["seed"], sid, ratio)


def test_criterion_07_weak_poincare(poincare):
    assert len(poincare["reports"]) == 3
    for report in poincare["reports"]:
        assert report.hypotheses_met
        assert report.empirical_constant is not None
        assert np.isfinite(report.empirical_constant)
        assert report.passed is True, (report.extras["eps"],
                                       report.empirical_constant,
                                       report.pass_bound)
    constant_case = experiments.run_poincare_constant()
    assert constant_case["lhs"] == 0.0  # exactly


def test_criterion_08_ivl_and_gap_sharpness(mixing, counterexample):
    ivl = mixing["ivl"]
    assert ivl.extras["delta1"] == 0.3 and ivl.extras["delta2"] == 0.3
    assert ivl.hypotheses_met, ivl.extras
    assert ivl.passed is True, ivl.extras
    # conclusion tested against the derived nu, not a fitted stand-in
    assert ivl.lhs == mixing["nu"]

    gap_removed = counterexample["gap_removed"]
    assert gap_removed.hypotheses_met, gap_removed.extras
    assert counterexample["intermediate_fraction"] == 0.0  # exactly
    assert counterexample["nu"] > 0.0


def test_criterion_09_harnack_suite(harnack_suite):
    constant = harnack_suite["constant"]
    assert constant["ratio"] == 1.0  # exactly

    for member in harnack_suite["members"]:
        strong = member["harnack"].empirical_constant
        weak = member["weak"].empirical_constant
        assert strong is not None and np.isfinite(strong), member["pole"]
        assert weak is not None and np.isfinite(weak), member["pole"]

    inv = harnack_suite["invariance"]
    assert inv["translation_commensurate"]["strong_rel"] <= 0.02
    assert inv["translation_commensurate"]["weak_rel"] <= 0.02
    assert inv["translation_generic"]["strong_rel"] <= 0.02
    assert inv["scaling_half"]["strong_rel"] <= 0.02
    assert inv["scaling_half"]["weak_normalized_rel"] <= 0.02

    volume = harnack_suite["volume"]
    assert volume["rel_err"] <= 0.01, volume


def test_criterion_10_holder_decay(oscillation_study):
    assert len(oscillation_study) == 20
    for member in oscillation_study:
        report = member["report"]
        assert report.extras["alpha_hat"] > 0.0, member["seed"]
        assert report.hypotheses_met
        assert report.passed is True, (member["seed"], report.extras)
    assert explicit_constants(0.5, 0.5, 0.0).as_tuple_str(12) == PINNED_TUPLE


def test_criterion_11_boundary_noncontamination(ensemble):
    for pair in experiments.run_boundary_pairs(ensemble):
        seed = pair["seed"]
        for sid, shift in pair["shifts"].items():
            assert shift < 0.02, (seed, sid, shift)


def test_calibration_worst_constants_unchanged(ensemble, poincare,
                                               harnack_suite, kernel_suite):
    # the calibration workloads of scripts/make_calibration.py, read from
    # the fixtures that already hold them
    reports = [r for member in ensemble for r in member["reports"]]
    reports += poincare["reports"] + harnack_suite["reports"]
    reports.append(kernel_suite["representation"]["report"])
    worst = worst_constants(reports)
    pinned = load_calibration()["worst_observed"]
    assert sorted(worst) == sorted(pinned)
    for sid, value in pinned.items():
        assert worst[sid] == pytest.approx(value, rel=1e-13, abs=0.0), sid
