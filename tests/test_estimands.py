import math
import os
import re
import sys
import threading
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmix import (CensoringSpec, EstimatedCurves, MixtureArm, TrialConfig,
                     TwoArmTruth, censoring_sensitivity, cox_fit_dataset,
                     cumulative_hazard, estimands, landmark_contrast,
                     log_survival_ratio, marginal_survival, rmst, simulate)
from survmix.estimators import cox_log_hr_stack
from survmix.rng import derive_seed
from survmix.trial import censored_replicates

from conftest import mixture_arms

# frozen from a 50-digit evaluation of the closed forms (two_point_truth)
LANDMARK_DIFF_AT_1 = 0.10933106491176293
LOG_SURVIVAL_RATIO_AT_1 = 0.5176429267838916
LOG_SURVIVAL_RATIO_AT_200 = 0.5167482300906631
RMST_CONTROL_AT_10 = 4.153864847143703
RMST_RESEARCH_AT_10 = 5.770523405625868
RMST_SINGLE_EXP_01_AT_10 = 6.321205588285577


def small_estimated_source():
    # two arms of four subjects each, hand-checkable Kaplan-Meier curves
    time = np.array([1.0, 2.0, 3.0, 4.0, 0.5, 2.5, 3.5, 5.0])
    event = np.array([1, 0, 1, 0, 1, 1, 0, 1], dtype=bool)
    arm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return EstimatedCurves.from_sample(time, event, arm)


class TestLandmarkContrast:
    def test_truth_difference(self, two_point_truth):
        report = landmark_contrast(two_point_truth, 1.0, kind="difference")
        assert report.value == pytest.approx(LANDMARK_DIFF_AT_1, abs=1e-14)
        assert report.per_arm["control"] == pytest.approx(0.7556840388742965, abs=1e-14)
        assert report.per_arm["research"] == pytest.approx(0.8650151037860594, abs=1e-14)
        assert report.source == "truth"

    def test_identical_arms_ratio_is_one(self, two_point_truth):
        same = TwoArmTruth(two_point_truth.control, two_point_truth.control)
        for t in (0.5, 3.0, 12.0):
            assert landmark_contrast(same, t, kind="ratio").value == pytest.approx(
                1.0, abs=1e-14)

    @pytest.mark.parametrize("t_star", [0.25, 1.0, 7.5])
    def test_risk_difference_is_negated_difference(self, two_point_truth, t_star):
        diff = landmark_contrast(two_point_truth, t_star, kind="difference").value
        risk = landmark_contrast(two_point_truth, t_star, kind="risk_difference").value
        assert risk == -diff

    def test_estimated_source_uses_km_steps(self):
        source = small_estimated_source()
        report = landmark_contrast(source, 2.75, kind="difference")
        assert report.per_arm["control"] == pytest.approx(0.75, abs=1e-15)
        assert report.per_arm["research"] == pytest.approx(0.5, abs=1e-15)
        assert report.source == "estimated"

    def test_estimated_source_ratio(self):
        report = landmark_contrast(small_estimated_source(), 2.75, kind="ratio")
        assert report.value == 0.6666666666666666  # 0.5 / 0.75
        assert report.per_arm == {"control": 0.75, "research": 0.5}

    @pytest.mark.parametrize("t_star", [2e4, 1e6])
    def test_truth_ratio_past_the_largest_float_rejected(self, two_point_truth, t_star):
        # exp(H0 - H1) overflows: a ValueError naming the estimand and t
        message = f"estimand landmark_ratio at t={t_star:g} is not finite: inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            landmark_contrast(two_point_truth, t_star, kind="ratio")

    def test_beyond_support_names_maximum(self):
        source = small_estimated_source()
        with pytest.raises(ValueError, match="maximum supported landmark is 4"):
            landmark_contrast(source, 4.5)

    def test_rejects_nonpositive_landmark(self, two_point_truth):
        for t_star in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="> 0"):
                landmark_contrast(two_point_truth, t_star)

    def test_ratio_with_zero_control_survival_named(self):
        # the Kaplan-Meier control curve reaches 0 at its last event, t = 2
        source = EstimatedCurves.from_sample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0],
                                             [0, 0, 1, 1])
        with pytest.raises(ValueError, match="ratio undefined at t=2: control survival is 0"):
            landmark_contrast(source, 2.0, kind="ratio")

    def test_truth_ratio_exact_where_survival_underflows(self, two_point_truth):
        # by t = 8000 the control survival underflows to 0, while the ratio
        # exp(H0 - H1) is exp(400)
        report = landmark_contrast(two_point_truth, 8000.0, kind="ratio")
        h0 = cumulative_hazard(two_point_truth.control, 8000.0)
        h1 = cumulative_hazard(two_point_truth.research, 8000.0)
        assert report.value == pytest.approx(math.exp(h0 - h1), rel=1e-12)
        assert report.value == pytest.approx(math.exp(400.0), rel=1e-9)
        assert report.per_arm == {"control": 0.0,
                                  "research": marginal_survival(two_point_truth.research,
                                                                8000.0)}

    @pytest.mark.parametrize("arm, message", [
        ([0, 1, 2, 0, 1, 2], "row 2: arm must be 0 or 1, got 2"),
        ([0, 1, 0.5, 0, 1, 1], "row 2: arm must be 0 or 1, got 0.5"),
    ])
    def test_curves_reject_an_arm_other_than_0_or_1(self, arm, message):
        # such rows were dropped without a word
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EstimatedCurves.from_sample([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1] * 6, arm)

    def test_rejects_unknown_kind(self, two_point_truth):
        with pytest.raises(ValueError, match="kind"):
            landmark_contrast(two_point_truth, 1.0, kind="odds")


class TestRmst:
    def test_single_exponential_closed_form(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.1,))
        truth = TwoArmTruth(control=arm, research=arm)
        report = rmst(truth, "control", 10.0)
        assert report.value == pytest.approx(RMST_SINGLE_EXP_01_AT_10, abs=1e-12)

    def test_rate_times_horizon_past_the_largest_float(self):
        # the stratum whose rate * tau passes the largest float adds w / rate
        # (1 - exp(-inf) = 1), without a warning
        arm = MixtureArm(weights=(0.5, 0.5), rates=(0.1, 1.7976931348623157e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = rmst(TwoArmTruth(control=arm, research=arm), "control", 10.0)
        assert report.value == pytest.approx(0.5 * RMST_SINGLE_EXP_01_AT_10, rel=1e-15)

    def test_mixture_closed_form_matches_quadrature(self, two_point_truth):
        for label, arm, frozen in (
            ("control", two_point_truth.control, RMST_CONTROL_AT_10),
            ("research", two_point_truth.research, RMST_RESEARCH_AT_10),
        ):
            report = rmst(two_point_truth, label, 10.0)
            assert report.value == pytest.approx(frozen, abs=1e-12)
            t = np.linspace(0.0, 10.0, 100_001)
            quad = np.trapezoid(marginal_survival(arm, t), t)
            assert report.value == pytest.approx(quad, abs=1e-6)

    def test_difference_is_research_minus_control(self, two_point_truth):
        report = rmst(two_point_truth, "difference", 10.0)
        assert report.value == pytest.approx(
            RMST_RESEARCH_AT_10 - RMST_CONTROL_AT_10, abs=1e-12)
        assert set(report.per_arm) == {"control", "research"}

    def test_short_horizon_approaches_horizon(self, two_point_truth):
        tau = 1e-6
        value = rmst(two_point_truth, "control", tau).value
        assert 0.0 < value <= tau
        assert value == pytest.approx(tau, rel=1e-5)

    @pytest.mark.parametrize("weights,rates,tau", [
        ((0.5, 0.5), (0.1, 0.5), 1e-6),  # two_point_truth's control arm
        ((0.5, 0.5), (0.05, 0.25), 1e-6),  # and its research arm
        ((1.0,), (1e-10,), 1.0),
    ])
    def test_short_horizon_keeps_its_digits(self, weights, rates, tau):
        # 1 - exp(-rate tau) cancels where rate tau is small; the reference
        # is the closed form in 50 digits of the same binary inputs
        arm = MixtureArm(weights=weights, rates=rates)
        value = rmst(TwoArmTruth(control=arm, research=arm), "control", tau).value
        with localcontext() as ctx:
            ctx.prec = 50
            exact = sum(Decimal(w) * (1 - (-Decimal(r) * Decimal(tau)).exp()) / Decimal(r)
                        for w, r in zip(arm.weights, arm.rates))
        assert value == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_estimated_source_exact_step_area(self):
        source = small_estimated_source()
        # control KM: 1 on [0,1), 0.75 on [1,3), 0.375 on [3,4]
        value = rmst(source, "control", 4.0).value
        assert value == pytest.approx(1.0 + 0.75 * 2 + 0.375 * 1, abs=1e-12)

    def test_estimated_horizon_beyond_support_rejected(self):
        source = small_estimated_source()
        with pytest.raises(ValueError, match="last observed time"):
            rmst(source, "control", 4.5)
        rmst(source, "research", 4.5)  # research arm extends to 5.0

    def test_value_within_bounds(self, two_point_truth):
        report = rmst(two_point_truth, "control", 30.0)
        assert 0.0 < report.value <= 30.0

    @settings(max_examples=200, deadline=None)
    @given(arm=mixture_arms(), horizon=st.floats(0.1, 50.0))
    def test_closed_form_between_step_sums(self, arm, horizon):
        # S is non-increasing, so its integral over each grid step lies
        # between the step's width times S at either end
        value = rmst(TwoArmTruth(control=arm, research=arm), "control", horizon).value
        t = np.linspace(0.0, horizon, 2001)
        width = np.diff(t)  # exact: neighbouring grid points
        s = marginal_survival(arm, t)
        lower, upper = math.fsum(width * s[1:]), math.fsum(width * s[:-1])
        slack = 1e-12 * horizon
        assert lower - slack <= value <= upper + slack
        assert upper - lower <= 1.001 * horizon / 2000

    def test_bad_arguments(self, two_point_truth):
        for horizon in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="> 0"):
                rmst(two_point_truth, "control", horizon)
        with pytest.raises(ValueError, match="arm"):
            rmst(two_point_truth, "treatment", 1.0)


class TestLogSurvivalRatio:
    def test_proportional_hazards_gives_constant_rate_ratio(self, single_rate_truth):
        for t in (0.1, 1.0, 10.0, 100.0):
            report = log_survival_ratio(single_rate_truth, t)
            assert abs(report.value - 0.5) < 1e-12

    def test_mixture_value(self, two_point_truth):
        report = log_survival_ratio(two_point_truth, 1.0)
        assert report.value == pytest.approx(LOG_SURVIVAL_RATIO_AT_1, abs=1e-13)

    def test_late_time_approaches_stratum_ratio(self, two_point_truth):
        report = log_survival_ratio(two_point_truth, 200.0)
        assert report.value == pytest.approx(LOG_SURVIVAL_RATIO_AT_200, abs=1e-12)
        assert abs(report.value - 0.5) < abs(LOG_SURVIVAL_RATIO_AT_1 - 0.5)

    def test_equals_cumulative_hazard_ratio(self, two_point_truth):
        # same quantity through an independent code path
        for t in np.linspace(0.05, 60.0, 240):
            ratio = (cumulative_hazard(two_point_truth.research, t)
                     / cumulative_hazard(two_point_truth.control, t))
            assert log_survival_ratio(two_point_truth, t).value == pytest.approx(
                ratio, abs=1e-12)

    def test_stays_in_half_open_band(self, two_point_truth):
        for t in np.linspace(0.01, 100.0, 500):
            value = log_survival_ratio(two_point_truth, t).value
            assert 0.5 - 1e-12 <= value < 1.0

    def test_undefined_at_zero_or_degenerate(self, two_point_truth):
        for t in (0.0, float("inf")):
            with pytest.raises(ValueError, match="> 0"):
                log_survival_ratio(two_point_truth, t)
        # a subnormal survival has lost the digits log S needs; 0 has none
        for t, s0 in ((7400.0, "2.07508e-322"), (8000.0, "0")):
            with pytest.raises(ValueError, match=f"control survival is {s0}$"):
                log_survival_ratio(two_point_truth, t)
        source = small_estimated_source()
        with pytest.raises(ValueError, match="undefined"):
            log_survival_ratio(source, 0.4)  # before the first event: S = 1


class TestCensoringSensitivity:
    def test_smoke_two_replicates(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=100, seed=55)
        rows = censoring_sensitivity(config, [CensoringSpec()], replicates=2)
        assert len(rows) == 1
        assert rows[0].n_ok == 2 and rows[0].n_failed == 0
        assert np.isfinite(rows[0].mean_beta) and np.isfinite(rows[0].mc_se)

    def test_replicates_must_be_at_least_two(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=100, seed=55)
        with pytest.raises(ValueError, match="replicates"):
            censoring_sensitivity(config, [CensoringSpec()], replicates=1)

    @pytest.mark.parametrize("replicates", [3.0, 2.5, "3", True])
    def test_replicates_must_be_an_integer(self, two_point_truth, replicates):
        config = TrialConfig(truth=two_point_truth, n_per_arm=100, seed=55)
        with pytest.raises(ValueError, match=f"^replicates must be an integer, got "
                                             f"{re.escape(repr(replicates))}$"):
            censoring_sensitivity(config, [CensoringSpec()], replicates)

    def test_proportional_hazards_insensitive(self, single_rate_truth):
        config = TrialConfig(truth=single_rate_truth, n_per_arm=500, seed=61)
        early = CensoringSpec(admin_time=2.0)
        late = CensoringSpec(admin_time=30.0)
        r_early, r_late = censoring_sensitivity(config, [early, late], replicates=60)
        combined = np.hypot(r_early.mc_se, r_late.mc_se)
        assert abs(r_early.mean_beta - r_late.mean_beta) < 3 * combined
        for row in (r_early, r_late):
            assert abs(row.mean_beta - np.log(0.5)) < 3 * row.mc_se

    def test_frailty_makes_average_depend_on_censoring(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=500, seed=61)
        early = CensoringSpec(admin_time=2.0)
        late = CensoringSpec(admin_time=30.0)
        r_early, r_late = censoring_sensitivity(config, [early, late], replicates=60)
        combined = np.hypot(r_early.mc_se, r_late.mc_se)
        assert abs(r_early.mean_beta - r_late.mean_beta) > 4 * combined
        assert abs(r_early.mean_beta - np.log(0.5)) < abs(r_late.mean_beta - np.log(0.5))

    def test_failed_replicates_counted_not_fatal(self, two_point_truth):
        # admissions this early leave (almost) no events, so fits fail
        config = TrialConfig(truth=two_point_truth, n_per_arm=3, seed=71)
        spec = CensoringSpec(admin_time=1e-6)
        rows = censoring_sensitivity(config, [spec], replicates=5)
        assert rows[0].n_ok + rows[0].n_failed == 5
        assert rows[0].n_failed > 0

    def test_deterministic_given_seed(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=200, seed=81)
        spec = CensoringSpec(rate=0.2)
        first = censoring_sensitivity(config, [spec], replicates=10)
        second = censoring_sensitivity(config, [spec], replicates=10)
        assert first == second


def reference_log_hrs(config, specs, replicates):
    """The per-replicate loop: one simulation and one Cox fit per (spec,
    replicate); nan where the fit raises or does not converge."""
    log_hrs = np.full((len(specs), replicates), np.nan)
    for k, spec in enumerate(specs):
        for r in range(replicates):
            dataset = simulate(replace(config, seed=derive_seed(config.seed, r),
                                       censoring=spec))
            try:
                fit = cox_fit_dataset(dataset, covariates=("arm",))
            except ValueError:
                continue
            if fit.converged:
                log_hrs[k, r] = fit.log_hr
    return log_hrs


class TestBatchedReplicatesMatchReference:
    SPECS = [CensoringSpec(),
             CensoringSpec(admin_time=2.0),
             CensoringSpec(rate=0.3),
             CensoringSpec(admin_time=4.0, rate=0.1)]

    def check(self, config, specs, replicates):
        expected = reference_log_hrs(config, specs, replicates)
        batched = estimands._replicate_log_hrs(config, specs, replicates)
        np.testing.assert_array_equal(np.isnan(batched), np.isnan(expected))
        np.testing.assert_allclose(batched, expected, rtol=0.0, atol=1e-12)
        rows = censoring_sensitivity(config, specs, replicates)
        for row, spec, betas in zip(rows, specs, expected):
            ok = betas[np.isfinite(betas)]
            assert row.spec_label == spec.label()
            assert (row.n_ok, row.n_failed) == (ok.size, replicates - ok.size)
            if ok.size:
                assert row.mean_beta == pytest.approx(ok.mean(), abs=1e-12)
        return expected

    @pytest.mark.parametrize("coupling", ["comonotone", "independent"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries(self, two_point_truth, monkeypatch, coupling, offset):
        n_per_arm, block = 40, 4
        monkeypatch.setattr(estimands, "_BLOCK_ROWS", block * 2 * n_per_arm)
        config = TrialConfig(truth=two_point_truth, n_per_arm=n_per_arm,
                             coupling=coupling, seed=91)
        self.check(config, self.SPECS, block + offset)

    def test_default_block(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=200, seed=92)
        self.check(config, self.SPECS[1:3], 40)

    def test_no_events(self, two_point_truth):
        config = TrialConfig(truth=two_point_truth, n_per_arm=5, seed=93)
        spec = CensoringSpec(admin_time=1e-6)
        expected = self.check(config, [spec], 6)
        assert np.isnan(expected).all()

    @pytest.mark.parametrize("coupling", ["comonotone", "independent"])
    def test_tiny_arms(self, two_point_truth, coupling):
        # one or two per arm: events in one arm only, and separated samples
        # whose fit diverges
        for n_per_arm in (1, 2):
            config = TrialConfig(truth=two_point_truth, n_per_arm=n_per_arm,
                                 coupling=coupling, seed=94)
            expected = self.check(config, self.SPECS, 30)
            assert np.isnan(expected).any()


def replicate_threads():
    return sum(t.name.startswith("survmix-replicates") for t in threading.enumerate())


class TestReplicateThreads:
    """_replicate_log_hrs fits its blocks of 4 replicates on a pool of at most
    two survmix-replicates threads, one per usable CPU; one block, or one CPU,
    is fitted in the calling thread."""
    SPECS = TestBatchedReplicatesMatchReference.SPECS + [
        CensoringSpec(admin_time=1e-6)]  # no events: nan
    N_PER_ARM, BLOCK = 40, 4

    def run(self, config, monkeypatch, cpus, replicates, error=None, fail_at=None):
        """The log-HRs with `cpus` usable CPUs, and the live replicate threads
        at each cox_log_hr_stack call; block `fail_at` raises `error`."""
        monkeypatch.setattr(estimands, "_BLOCK_ROWS", self.BLOCK * 2 * self.N_PER_ARM)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        failing_seed = None if fail_at is None \
            else derive_seed(config.seed, fail_at * self.BLOCK)
        alive = []

        def failing_replicates(config, seeds, specs):
            if seeds[0] == failing_seed:
                raise error
            return censored_replicates(config, seeds, specs)

        def recording_fit(observed, event, arm):
            alive.append(replicate_threads())
            return cox_log_hr_stack(observed, event, arm)

        monkeypatch.setattr(estimands, "censored_replicates", failing_replicates)
        monkeypatch.setattr(estimands, "cox_log_hr_stack", recording_fit)
        return estimands._replicate_log_hrs(config, self.SPECS, replicates), alive

    @pytest.mark.parametrize("coupling", ["comonotone", "independent"])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_same_bytes_as_serial(self, two_point_truth, monkeypatch, coupling, blocks):
        config = TrialConfig(truth=two_point_truth, n_per_arm=self.N_PER_ARM,
                             coupling=coupling, seed=95)
        replicates = self.BLOCK * blocks - 1  # a short last block
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            threaded, alive = self.run(config, monkeypatch, 2, replicates)
        finally:
            sys.setswitchinterval(interval)
        assert replicate_threads() == 0
        serial, serial_alive = self.run(config, monkeypatch, 1, replicates)
        assert replicate_threads() == 0
        np.testing.assert_array_equal(threaded, serial)
        assert np.isnan(serial[-1]).all() and np.isfinite(serial[0]).all()
        assert len(alive) == len(serial_alive) == blocks * len(self.SPECS)
        # one block, or one CPU, is fitted in the calling thread
        assert (min(alive) >= 1) == (blocks > 1) and max(alive) <= min(2, blocks)
        assert set(serial_alive) == {0}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fail_at", [0, 2], ids=["first", "later"])
    def test_error_propagates_and_threads_end(self, two_point_truth, monkeypatch,
                                              fail_at, cpus):
        config = TrialConfig(truth=two_point_truth, n_per_arm=self.N_PER_ARM, seed=96)
        error = ValueError(f"block {fail_at} failed")
        with pytest.raises(ValueError) as raised:
            self.run(config, monkeypatch, cpus, 4 * self.BLOCK, error, fail_at)
        assert raised.value is error
        assert replicate_threads() == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_callers_errstate_holds_in_the_threads(self, two_point_truth, monkeypatch,
                                                   cpus):
        # a new thread starts with numpy's default errstate, where an
        # overflow only warns
        config = TrialConfig(truth=two_point_truth, n_per_arm=self.N_PER_ARM, seed=97)
        monkeypatch.setattr(estimands, "_BLOCK_ROWS", self.BLOCK * 2 * self.N_PER_ARM)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        fitted_in = []

        def overflowing_fit(observed, event, arm):
            fitted_in.append(threading.current_thread().name)
            return np.exp(np.full(observed.shape[0], 1e3))

        monkeypatch.setattr(estimands, "cox_log_hr_stack", overflowing_fit)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                estimands._replicate_log_hrs(config, self.SPECS, 2 * self.BLOCK)
        caller = threading.current_thread().name
        assert fitted_in and all(name.startswith("survmix-replicates") if cpus == 2
                                 else name == caller for name in fitted_in)
        assert replicate_threads() == 0
