"""Acceptance gate: every release-blocking behaviour in one module.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure) in addition to asserting, so the suite doubles as a checklist.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from survmix import (CensoringSpec, MixtureArm, TrialConfig, TwoArmTruth,
                     breslow_baseline, censoring_sensitivity, cox_fit,
                     cox_fit_dataset, default_grid, hazard_ratio, kaplan_meier,
                     limit_hazard_ratio, log_survival_ratio, marginal_hazard,
                     marginal_survival, rmst, simulate, truth_curves)
from survmix.cli import main

from conftest import brute_partial_loglik

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number, ok, detail):
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def truth():
    return TwoArmTruth(
        control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.5)),
        research=MixtureArm(weights=(0.5, 0.5), rates=(0.05, 0.25)),
    )


def test_criterion_01_boundary_hazard_ratios(truth):
    hr0 = hazard_ratio(truth, 0.0)
    limit = limit_hazard_ratio(truth)
    hr200 = hazard_ratio(truth, 200.0)
    ok = (abs(hr0 - 0.5) < 1e-12
          and limit == 0.5
          and abs(hr200 - 0.5) < 1e-6)
    report(1, ok, f"HR(0)={hr0!r}, limit={limit!r}, HR(200)={hr200!r}")


GRID_MAX_RATIO = 0.7285774111055057  # 50-digit dense-grid oracle, t = 6.95


def test_criterion_02_ratio_curve_shape(truth):
    table = truth_curves(truth, default_grid())
    ratio = table.hazard_ratio
    peak = int(np.argmax(ratio))
    interior = 0 < peak < ratio.size - 1
    ok = bool(np.all(ratio >= 0.5 - 1e-12) and interior
              and ratio[peak] > 0.51
              and abs(ratio[peak] - GRID_MAX_RATIO) < 1e-12)
    report(2, ok, f"601-point grid on [0,30]: min={ratio.min():.12f}, "
                  f"max={ratio[peak]:.6f} at t={table.grid[peak]:.2f}")


def test_criterion_03_finite_difference_hazard(truth):
    worst = 0.0
    grid = np.linspace(0.01, 30.0, 200)
    for arm in (truth.control, truth.research):
        for t in grid:
            eps = 1e-6 * max(1.0, t)
            slope = (math.log(marginal_survival(arm, t + eps))
                     - math.log(marginal_survival(arm, t - eps))) / (2 * eps)
            worst = max(worst, abs(marginal_hazard(arm, t) + slope))
    ok = worst < 1e-5
    report(3, ok, f"max |h(t) + d/dt log S(t)| = {worst:.3e} over 200 points/arm")


def test_criterion_04_stratum_adjusted_recovery(truth):
    dataset = simulate(TrialConfig(truth=truth, n_per_arm=500, seed=20260808))
    fit = cox_fit_dataset(dataset, covariates=("arm", "stratum"))
    z = (fit.log_hr - math.log(0.5)) / fit.log_hr_se
    ok = fit.converged and abs(z) < 3.0
    report(4, ok, f"arm coefficient {fit.log_hr:.4f} (se {fit.log_hr_se:.4f}), "
                  f"z={z:+.2f} against log(0.5)")


def test_criterion_05_censoring_moves_average_hazard_ratio(truth):
    config = TrialConfig(truth=truth, n_per_arm=500, seed=20260808)
    early = CensoringSpec(admin_time=2.0)
    late = CensoringSpec(admin_time=30.0)
    r_early, r_late = censoring_sensitivity(config, [early, late], replicates=200)
    diff = abs(r_early.mean_beta - r_late.mean_beta)
    combined = math.hypot(r_early.mc_se, r_late.mc_se)
    ok = (r_early.n_failed == 0 and r_late.n_failed == 0
          and diff > 4.0 * combined)
    report(5, ok, f"mean beta admin@2={r_early.mean_beta:.4f}, "
                  f"admin@30={r_late.mean_beta:.4f}, diff={diff:.4f} "
                  f"vs 4*se={4 * combined:.4f}")


def test_criterion_06_kaplan_meier_consistency(truth):
    dataset = simulate(TrialConfig(truth=truth, n_per_arm=100_000, seed=7))
    worst = 0.0
    for z, arm in ((0, truth.control), (1, truth.research)):
        mask = dataset.arm == z
        km = kaplan_meier(dataset.observed_time[mask], dataset.event[mask])
        s = marginal_survival(arm, km.times)
        before_jump = np.concatenate([[1.0], km.values[:-1]])
        worst = max(worst, np.abs(km.values - s).max(),
                    np.abs(before_jump - s).max())
    ok = worst < 0.01
    report(6, ok, f"sup |KM - S| = {worst:.5f} with n=100000 per arm")


def test_criterion_07_rmst_closed_form_vs_quadrature(truth):
    worst = 0.0
    for label, arm in (("control", truth.control), ("research", truth.research)):
        for tau in (1.0, 10.0, 30.0):
            closed = rmst(truth, label, tau).value
            t = np.linspace(0.0, tau, 100_001)
            quad = np.trapezoid(marginal_survival(arm, t), t)
            worst = max(worst, abs(closed - quad))
    ok = worst < 1e-6
    report(7, ok, f"max |closed form - trapezoid| = {worst:.2e} "
                  f"over both arms, tau in {{1, 10, 30}}")


def test_criterion_08_log_survival_ratio_under_proportional_hazards():
    truth = TwoArmTruth(control=MixtureArm(weights=(1.0,), rates=(0.1,)),
                        research=MixtureArm(weights=(1.0,), rates=(0.05,)))
    worst = max(abs(log_survival_ratio(truth, t).value - 0.5)
                for t in (0.1, 1.0, 10.0, 100.0))
    ok = worst < 1e-12
    report(8, ok, f"max |log-survival ratio - 0.5| = {worst:.2e}")


def test_criterion_09_small_fixture_oracles():
    time6 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    event6 = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
    x6 = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])

    fit = cox_fit(time6, event6, x6)
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
    brute = [brute_partial_loglik(b, time6, event6, x6) for b in grid]
    newton_vs_grid = abs(fit.coef[0] - grid[int(np.argmax(brute))])

    km = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
    km_err = np.abs(km.values - np.array([0.75, 0.375])).max()

    baseline = breslow_baseline(fit, time6, event6, x6)
    eb = math.exp(fit.coef[0])
    hand = np.cumsum([1 / (4 * eb + 2), 1 / (3 * eb + 2), 1 / (2 * eb + 1), 1 / eb])
    breslow_err = np.abs(baseline.values - hand).max()

    ok = newton_vs_grid < 1e-3 and km_err < 1e-10 and breslow_err < 1e-10
    report(9, ok, f"newton vs grid {newton_vs_grid:.2e}; KM {km_err:.2e}; "
                  f"breslow {breslow_err:.2e}")


def test_criterion_10_golden_curve_tables(tmp_path):
    out = tmp_path / "out"
    code = main(["truth", "--out", str(out)])
    matches = {}
    for name in ("curves.csv", "hr.csv"):
        with open(out / name, "rb") as fh:
            produced = fh.read()
        with open(GOLDEN_DIR / name, "rb") as fh:
            pinned = fh.read()
        matches[name] = produced == pinned
    ok = code == 0 and all(matches.values())
    report(10, ok, f"byte-identical: {matches}")
