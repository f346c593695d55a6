import hashlib
import math
import os
import re
import threading
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from survmix import (CoxFit, EstimatedCurves, MixtureArm, TrialConfig, TwoArmTruth,
                     breslow_baseline, cox_fit, cox_fit_dataset, fit_report,
                     kaplan_meier, marginal_density, marginal_survival,
                     nelson_aalen, period_specific_cox, simulate)
from survmix import _pool, estimators
from survmix.estimators import (_MATVEC_ROWS, _POOL_ROWS, _CoxData, _matvec, _newton,
                                _sort_and_group, check_cutpoints, cox_log_hr_stack)

from conftest import brute_partial_loglik

# 6-record fixture: events at t=1 (x=1), 2 (x=0), 4 (x=0), 6 (x=1)
TIME6 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
EVENT6 = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
X6 = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])


def reference_suffix_sum(a):
    """sum a[i:] for every i by recursive doubling, on a copy of `a`."""
    out = np.array(a, dtype=float, copy=True)
    n = out.shape[0]
    shift = 1
    while shift < n:
        out[: n - shift] += out[shift:]
        shift *= 2
    return out


def reference_loglik_score_info(data, beta):
    """The Cox evaluation with one suffix sum per term over the full (n, p, p)
    products: the bitwise reference of _CoxData.loglik_score_info."""
    w = np.exp(data.x @ beta)
    xw = data.x * w[:, None]
    xxw = xw[:, :, None] * data.x[:, None, :]
    w_risk = reference_suffix_sum(w)[data.start]
    xw_risk = reference_suffix_sum(xw)[data.start]
    xxw_risk = reference_suffix_sum(xxw)[data.start]
    xbar = xw_risk / w_risk[:, None]
    ll = float(np.sum(data.event_x_sum @ beta) - np.sum(data.d * np.log(w_risk)))
    score = np.sum(data.event_x_sum - data.d[:, None] * xbar, axis=0)
    info = np.einsum("j,jkl->kl", data.d.astype(float),
                     xxw_risk / w_risk[:, None, None]
                     - xbar[:, :, None] * xbar[:, None, :])
    return ll, score, info


def same_bits(a, b):
    """Equal bytes, except that any nan matches any nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


# covariate columns of every kind the evaluator treats apart: only exact
# 0/1 columns share buffer columns
COLUMN_VALUES = {
    "binary": st.sampled_from([0.0, 1.0]),
    "small_integer": st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    "negative": st.sampled_from([-2.0, -1.0, 0.0, 1.0]),
    "negative_zero": st.sampled_from([-0.0, 0.0, 1.0]),
    "continuous": st.floats(-3.0, 3.0),
}
# with |x| <= 3 these overflow exp(x beta) to inf or underflow it to 0
COEFFICIENTS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-800.0, 300.0, 800.0]))


@st.composite
def cox_problems(draw, p=None):
    n = draw(st.integers(2, 30))
    if p is None:
        p = draw(st.integers(1, 3))
    time = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.5, 7.0]), min_size=n,
                         max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=p,
                          max_size=p))
    x = np.column_stack([draw(st.lists(COLUMN_VALUES[kind], min_size=n, max_size=n))
                         for kind in kinds])
    betas = [np.array(draw(st.lists(COEFFICIENTS, min_size=p, max_size=p)))
             for _ in range(2)]
    return time, event, x, betas


def expected_period_loghr(truth, a, b, panels=100_000):
    """Large-sample limit of the period Cox estimate: root of the expected
    partial-likelihood score, computed from the closed-form curves."""
    t = np.linspace(a, b, panels + 1)
    fc = marginal_density(truth.control, t)
    fr = marginal_density(truth.research, t)
    sc = marginal_survival(truth.control, t)
    sr = marginal_survival(truth.research, t)
    events_research = np.trapezoid(fr, t)

    def escore(beta):
        xbar = sr * np.exp(beta) / (sc + sr * np.exp(beta))
        return events_research - np.trapezoid((fc + fr) * xbar, t)

    lo, hi = -4.0, 4.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if escore(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestKaplanMeier:
    def test_hand_product_limit_with_censoring(self):
        curve = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        assert np.array_equal(curve.times, [1.0, 3.0])
        assert curve.values == pytest.approx([0.75, 0.375], abs=1e-15)
        assert np.array_equal(curve.n_risk, [4, 2])
        assert np.array_equal(curve.n_event, [1, 1])
        # right-continuous step evaluation
        assert curve.at(0.5) == 1.0
        assert curve.at(1.0) == 0.75
        assert curve.at(2.9) == 0.75
        assert curve.at(10.0) == 0.375

    def test_nan_time_rejected(self):
        curve = kaplan_meier([1.0, 2.0, 3.0], [1, 1, 0])
        for t in (np.nan, [1.0, np.nan]):
            with pytest.raises(ValueError, match="time must not be nan"):
                curve.at(t)
        # before the first step the curve is its initial value, at inf its last
        assert curve.at(-1.0) == curve.at(0.5) == 1.0
        assert curve.at(np.inf) == curve.at([np.inf])[0] == curve.values[-1]

    def test_no_censoring_is_empirical_survival(self):
        curve = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert curve.values == pytest.approx([0.75, 0.5, 0.25, 0.0], abs=1e-15)

    def test_greenwood_variance(self):
        curve = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
        # S^2 * sum d / (n (n - d))
        assert curve.variance[0] == pytest.approx(0.75**2 * (1 / 12), abs=1e-15)
        assert curve.variance[1] == pytest.approx(0.375**2 * (1 / 12 + 1 / 2), abs=1e-15)

    def test_ties_grouped(self):
        curve = kaplan_meier([1.0, 1.0, 2.0], [1, 1, 1])
        assert np.array_equal(curve.times, [1.0, 2.0])
        assert curve.values == pytest.approx([1 / 3, 0.0], abs=1e-15)

    def test_requires_events_and_positive_times(self):
        with pytest.raises(ValueError, match="no events"):
            kaplan_meier([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="> 0"):
            kaplan_meier([-1.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="> 0"):
            kaplan_meier([0.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="1-d"):
            kaplan_meier(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="1-d"):
            cox_fit(np.ones((2, 3)), np.ones((2, 3)), np.ones(3))

    def test_consistency_against_truth(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=20_000, seed=13))
        control = ds.arm == 0
        km = kaplan_meier(ds.observed_time[control], ds.event[control])
        sup = np.abs(km.values - marginal_survival(two_point_truth.control, km.times)).max()
        assert sup < 0.01


class TestNelsonAalen:
    def test_hand_increments(self):
        curve = nelson_aalen([1.0, 2.0], [1, 1])
        assert curve.values == pytest.approx([0.5, 1.5], abs=1e-15)
        assert curve.variance == pytest.approx([0.25, 1.25], abs=1e-15)

    def test_single_subject(self):
        curve = nelson_aalen([5.0], [1])
        assert np.array_equal(curve.times, [5.0])
        assert curve.values == pytest.approx([1.0], abs=0)
        assert curve.at(4.9) == 0.0

    def test_non_decreasing(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=2000, seed=2))
        curve = nelson_aalen(ds.observed_time, ds.event)
        assert np.all(np.diff(curve.values) > 0)

    def test_exponential_sample_cumhazard(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.1,))
        truth = TwoArmTruth(control=arm, research=arm)
        ds = simulate(TrialConfig(truth=truth, n_per_arm=100_000, seed=21))
        control = ds.arm == 0
        curve = nelson_aalen(ds.observed_time[control], ds.event[control])
        assert abs(curve.at(10.0) - 1.0) < 0.05

    def test_exp_of_minus_na_tracks_km(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=500, seed=17))
        km = kaplan_meier(ds.observed_time, ds.event)
        na = nelson_aalen(ds.observed_time, ds.event)
        lower = np.exp(-na.values)
        assert np.all(lower >= km.values - 1e-12)  # exp(-x) >= 1-x termwise
        solid = km.n_risk >= 20
        assert np.abs(lower[solid] - km.values[solid]).max() < 0.01


class TestCoxFit:
    def test_matches_brute_force_grid(self):
        fit = cox_fit(TIME6, EVENT6, X6)
        grid = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
        values = [brute_partial_loglik(b, TIME6, EVENT6, X6) for b in grid]
        best = grid[int(np.argmax(values))]
        assert fit.converged
        assert abs(fit.coef[0] - best) < 1e-3
        assert fit.loglik_at_max == pytest.approx(
            brute_partial_loglik(fit.coef[0], TIME6, EVENT6, X6), abs=1e-10)

    def test_score_below_tolerance_when_converged(self, two_point_truth):
        for seed in (1, 2, 3):
            ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=400, seed=seed))
            fit = cox_fit_dataset(ds, covariates=("arm",))
            assert fit.converged
            assert np.max(np.abs(fit.score_at_max)) < 1e-8

    def test_single_stratum_arms_recover_rate_ratio(self, single_rate_truth):
        ds = simulate(TrialConfig(truth=single_rate_truth, n_per_arm=2000, seed=11))
        fit = cox_fit_dataset(ds, covariates=("arm",))
        assert fit.converged
        assert abs(fit.log_hr - np.log(0.5)) < 3 * fit.log_hr_se

    def test_stratum_adjusted_fit_recovers_conditional_ratio(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=500, seed=20260808))
        fit = cox_fit_dataset(ds, covariates=("arm", "stratum"))
        assert fit.converged
        assert abs(fit.log_hr - np.log(0.5)) < 3 * fit.log_hr_se
        # the stratum coefficient tracks the five-fold rate spread
        stratum_beta = fit.coef[fit.names.index("stratum")]
        stratum_se = fit.se[fit.names.index("stratum")]
        assert abs(stratum_beta - np.log(5.0)) < 3 * stratum_se

    def test_invariant_under_time_scaling(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=300, seed=6))
        x = ds.covariate_matrix(("arm",))
        fit1 = cox_fit(ds.observed_time, ds.event, x)
        fit2 = cox_fit(ds.observed_time * 3.7, ds.event, x)
        assert fit1.coef[0] == fit2.coef[0]

    def test_covariate_constant_among_events_rejected(self):
        with pytest.raises(ValueError, match="constant among events"):
            cox_fit([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0], [0.0, 0.0, 1.0, 1.0])

    def test_fewer_covariate_rows_rejected(self):
        with pytest.raises(ValueError, match="covariate rows must match"):
            cox_fit(TIME6, EVENT6, X6[:5])

    def test_separation_flagged_not_raised(self):
        # covariate strictly decreasing in event order: monotone likelihood
        fit = cox_fit([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [3.0, 2.0, 1.0, 0.0])
        assert not fit.converged
        assert abs(fit.coef[0]) > 15.0

    def test_report_schema(self):
        fit = cox_fit(TIME6, EVENT6, X6, names=("arm",))
        report = fit_report(fit)
        assert set(report) == {"beta", "se", "hr", "hr_ci_lower", "hr_ci_upper",
                               "iterations", "converged", "n_events"}
        assert report["hr"] == pytest.approx(np.exp(report["beta"]), abs=1e-15)
        assert report["hr_ci_lower"] == pytest.approx(
            np.exp(report["beta"] - 1.959964 * report["se"]), abs=1e-12)
        assert report["hr_ci_upper"] == pytest.approx(
            np.exp(report["beta"] + 1.959964 * report["se"]), abs=1e-12)
        assert report["n_events"] == 4


# a 0/1 column with a 0 row next to a column whose x w overflows there while
# w stays finite: (0 w) x_l = 0 but (x_l w) 0 = inf * 0 = nan, so the two
# orders of a pair with only one 0/1 column differ
OVERFLOW_TIME = [1.0, 2.0, 3.0, 4.0]
OVERFLOW_EVENT = [True, True, True, True]
OVERFLOW_X = np.array([[0.0, 2.3635], [1.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
OVERFLOW_BETAS = [np.array([0.0, 300.0]), np.array([0.1, 0.2])]


# problems that take each way through _newton's step halving: a first full
# step that overflows exp, a step that decreases the log likelihood, and
# steps that do so until they reach 2^-20 (how many depends on the rounding
# of numpy's exp kernels); a repeated column, whose information is singular;
# and separated columns, where |beta| passes DIVERGENCE_BOUND
HALVING_OVERFLOW = ([2.0, 2.0, 1.0, 3.0], [False, True, True, True],
                    np.array([[300.0, 1.0], [300.0, 0.0], [1.0, 700.0], [0.0, 700.0]]))
HALVING_DECREASE = ([4.5, 3.0, 1.0, 4.5, 7.0, 4.5, 1.0],
                    [False, True, False, True, False, True, True],
                    np.array([1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 3.0]))
HALVING_TO_LIMIT = ([2.0, 7.0, 2.0], [True, True, False],
                    np.array([[2.0, -1.0], [1.0, 0.0], [0.5, 0.5]]))
SINGULAR = (TIME6, EVENT6, np.column_stack([X6, X6]))
SEPARATED_COLUMNS = ([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1],
                     np.column_stack([[3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]]))
NEWTON_PROBLEMS = {
    1: [(OVERFLOW_TIME, OVERFLOW_EVENT, OVERFLOW_X[:, 1:]), HALVING_DECREASE,
        (SEPARATED_COLUMNS[0], SEPARATED_COLUMNS[1], SEPARATED_COLUMNS[2][:, :1])],
    2: [(OVERFLOW_TIME, OVERFLOW_EVENT, OVERFLOW_X), HALVING_OVERFLOW, HALVING_TO_LIMIT,
        SINGULAR, SEPARATED_COLUMNS],
    3: [(TIME6, EVENT6, np.column_stack([X6, X6, TIME6 % 4])),
        (OVERFLOW_TIME, OVERFLOW_EVENT, np.column_stack([OVERFLOW_X, [1.0, 0.0, 2.0, 0.0]]))],
}
# two converging fits: arm and stratum of a 600-row trial, and a non-binary
# second column
STACK_DATASET = simulate(TrialConfig(
    truth=TwoArmTruth(control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.5)),
                      research=MixtureArm(weights=(0.5, 0.5), rates=(0.05, 0.25))),
    n_per_arm=300, seed=17))
ARM_STRATUM = (STACK_DATASET.observed_time, STACK_DATASET.event,
               STACK_DATASET.covariate_matrix(("arm", "stratum")))
TWO_COLUMNS = (TIME6, EVENT6, np.column_stack([X6, TIME6 % 4]))


@st.composite
def newton_stacks(draw):
    """2-6 Cox problems with the same 1-3 covariates, each a small random
    problem or one of NEWTON_PROBLEMS; a random one that _CoxData refuses
    gives its place to one of NEWTON_PROBLEMS."""
    p = draw(st.integers(1, 3))
    fixed = st.sampled_from(NEWTON_PROBLEMS[p])
    problems = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            problems.append(draw(fixed))
            continue
        time, event, x, _ = draw(cox_problems(p=p))
        try:
            _CoxData(time, event, x)
        except ValueError:  # no events, or a covariate constant among them
            problems.append(draw(fixed))
        else:
            problems.append((time, event, x))
    return problems


class TestStackedNewton:
    @settings(max_examples=150, deadline=None)
    @given(problems=newton_stacks())
    @example(problems=[ARM_STRATUM, SINGULAR, SEPARATED_COLUMNS, TWO_COLUMNS])
    def test_rows_follow_their_own_fits(self, problems):
        # one solve over a stack equals one cox_fit per row, bit for bit;
        # the information is the evaluation at the fit's coefficients
        data = [_CoxData(*problem) for problem in problems]

        def evaluate(beta):
            parts = [d.loglik_score_info(b) for d, b in zip(data, beta)]
            return tuple(np.stack(column) for column in zip(*parts))

        beta, ll, score, info, iterations, converged = _newton(evaluate, len(data), data[0].p)
        for r, (problem, d) in enumerate(zip(problems, data)):
            fit = cox_fit(*problem)
            assert same_bits(beta[r], fit.coef)
            assert same_bits(ll[r], fit.loglik_at_max)
            assert same_bits(score[r], fit.score_at_max)
            assert same_bits(info[r], d.loglik_score_info(fit.coef)[2])
            assert (iterations[r], converged[r]) == (fit.iterations, fit.converged)

    @pytest.mark.parametrize("problem, evaluations, iterations, converged", [
        ((TIME6, EVENT6, X6), 5, 4, True),
        (ARM_STRATUM, 5, 4, True),
        (TWO_COLUMNS, 5, 4, True),
        (HALVING_OVERFLOW, 7, 5, True),
        (HALVING_DECREASE, 6, 4, True),
        (SINGULAR, 1, 1, False),
        (SEPARATED_COLUMNS, 16, 15, False),
    ])
    def test_evaluation_counts(self, monkeypatch, problem, evaluations, iterations,
                               converged):
        # one evaluation at 0, then one per step and one per halving
        calls = []
        evaluate = _CoxData.loglik_score_info

        def counted(self, beta):
            calls.append(beta)
            return evaluate(self, beta)

        monkeypatch.setattr(_CoxData, "loglik_score_info", counted)
        fit = cox_fit(*problem)
        assert (len(calls), fit.iterations, fit.converged) == \
            (evaluations, iterations, converged)

    def test_arm_stack_matches_cox_fit(self):
        rng = np.random.default_rng(3)
        time = np.round(rng.exponential(size=(10, 25)), 1) + 0.1  # many ties
        event = rng.random((10, 25)) < 0.6
        arm = rng.integers(0, 2, (10, 25))
        event[0] = False                    # no events
        event[1] &= arm[1] == 0             # events in one arm only
        arm[2] = (time[2] > np.median(time[2])).astype(int)  # separated
        event[2] = True
        time[8] = rng.integers(1, 4, 25)    # three times: tied events
        event[8] = True
        # events tied with censored rows that come first in input order
        time[9] = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 5)
        event[9] = np.tile([False, True, False, True, True], 5)
        # then every sample again with its rows shuffled
        shuffle = np.argsort(rng.random(time.shape), axis=1)
        time, event, arm = (np.concatenate([a, np.take_along_axis(a, shuffle, axis=1)])
                            for a in (time, event, arm))
        log_hr = cox_log_hr_stack(time, event, arm)
        for r in range(len(time)):
            try:
                fit = cox_fit(time[r], event[r], arm[r])
            except ValueError:
                assert np.isnan(log_hr[r]) and r % 10 < 2
                continue
            if fit.converged:
                assert log_hr[r] == pytest.approx(fit.log_hr, abs=1e-12)
            else:
                assert np.isnan(log_hr[r]) and r % 10 == 2
        assert np.isfinite(log_hr[[8, 9, 18, 19]]).all()

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_arm_stack_rejects_time_not_above_zero(self, bad):
        time = np.tile(TIME6, (2, 1))
        time[1, 3] = bad
        with pytest.raises(ValueError, match="> 0"):
            cox_log_hr_stack(time, np.tile(EVENT6, (2, 1)), X6)


class TestWorkBuffer:
    @settings(max_examples=200, deadline=None)
    @given(problem=cox_problems())
    @example(problem=(OVERFLOW_TIME, OVERFLOW_EVENT, OVERFLOW_X, OVERFLOW_BETAS))
    @example(problem=(OVERFLOW_TIME, OVERFLOW_EVENT, OVERFLOW_X[:, ::-1],
                      [b[::-1] for b in OVERFLOW_BETAS]))
    def test_bitwise_equal_to_suffix_sum_reference(self, problem):
        time, event, x, betas = problem
        try:
            data = _CoxData(time, event, x)
        except ValueError:
            assume(False)  # no events, or a covariate constant among them
        with np.errstate(all="ignore"):
            first = data.loglik_score_info(betas[0])
            kept = [np.array(a, copy=True) for a in first]
            for beta, got in ((betas[0], first),
                              (betas[1], data.loglik_score_info(betas[1]))):
                for a, b in zip(got, reference_loglik_score_info(data, beta)):
                    assert same_bits(a, b)
        # the second call reuses the buffer; the first results stay put
        assert all(same_bits(a, b) for a, b in zip(first, kept))


# the kinds of covariate column a blocked evaluation meets, drawn by numpy:
# 0/1, small integers, signed zeros, continuous, and a 0/1 column times log t
BLOCK_COLUMNS = {
    "binary": lambda rng, time: rng.integers(0, 2, time.size).astype(float),
    "small_integer": lambda rng, time: rng.integers(0, 4, time.size).astype(float),
    "negative_zero": lambda rng, time: rng.choice([-0.0, 0.0, 1.0], time.size),
    "continuous": lambda rng, time: rng.normal(0.0, 1.0, time.size),
    "product": lambda rng, time: rng.integers(0, 2, time.size) * np.log(time),
}
# an event time whose events all have x = -0.0, and a censored row before the
# next event time: its sum is +0.0; the next event time's one event is -0.0
SIGNED_ZERO_GROUPS = ([1.0, 1.0, 1.5, 2.0, 3.0, 4.0], [1, 1, 0, 1, 1, 1],
                      np.column_stack([[-0.0, -0.0, 2.0, -0.0, 0.5, 3.0],
                                       [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]]),
                      [np.array([0.3, -0.2]), np.array([300.0, 1.0])])


@st.composite
def blocked_problems(draw):
    """A censored sample of 2-800 rows with many or few tied event times and
    1-3 covariates of the BLOCK_COLUMNS kinds, and coefficients, some of
    which overflow exp(x beta)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 800))
    distinct = draw(st.sampled_from([3, 50, 10**9]))
    time = rng.integers(1, distinct + 1, n) * 0.125
    event = rng.random(n) < draw(st.sampled_from([0.3, 0.8, 1.0]))
    event[rng.integers(n)] = True
    kinds = draw(st.lists(st.sampled_from(sorted(BLOCK_COLUMNS)), min_size=1, max_size=3))
    x = np.column_stack([BLOCK_COLUMNS[kind](rng, time) for kind in kinds])
    betas = [np.array(draw(st.lists(COEFFICIENTS, min_size=x.shape[1],
                                    max_size=x.shape[1]))) for _ in range(2)]
    return time, event, x, betas


class TestEventBlocks:
    """_CoxData sums over the event times _EVENT_BLOCK at a time, carrying
    the sums of the blocks before as a first row: every block size gives the
    bits of the whole arrays, those of reference_loglik_score_info. At p = 1
    the evaluation is one block whatever _EVENT_BLOCK is."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(problem=blocked_problems())
    @example(problem=SIGNED_ZERO_GROUPS)
    @example(problem=(OVERFLOW_TIME, OVERFLOW_EVENT, OVERFLOW_X, OVERFLOW_BETAS))
    def test_every_block_size_keeps_the_bits_of_one_block(self, problem):
        time, event, x, betas = problem
        sorted_event, start = _sort_and_group(time, event)[1:3]
        for block in (1, 7, 2**16):
            with mock.patch.object(estimators, "_EVENT_BLOCK", block):
                try:
                    data = _CoxData(time, event, x)
                except ValueError:
                    assume(False)  # a covariate constant among the events
                # the whole-array sums, as one np.where over every row
                assert same_bits(data.event_x_sum, np.add.reduceat(
                    np.where(sorted_event[:, None], data.x, 0.0), start, axis=0))
                with np.errstate(all="ignore"):
                    for beta in betas:
                        got = data.loglik_score_info(beta)
                        want = reference_loglik_score_info(data, beta)
                        assert all(same_bits(a, b) for a, b in zip(got, want)), block

    def test_a_censored_row_makes_an_all_negative_zero_group_positive(self):
        time, event, x, _ = SIGNED_ZERO_GROUPS
        for block in (1, 7):
            with mock.patch.object(estimators, "_EVENT_BLOCK", block):
                column = _CoxData(time, event, x).event_x_sum[:, 0]
            assert column.tolist() == [0.0, 0.0, 0.5, 3.0]
            assert np.signbit(column).tolist() == [False, True, False, False]

    def test_one_column_is_summed_whole(self):
        # a p = 1 evaluation keeps numpy's pairwise sums of whole G-vectors,
        # which a carried row would change at a G past 1000
        time, event, x = random_problem(6000, 1, seed=29)
        data = _CoxData(time, event, x)
        assert data.start.size > 1000
        beta = np.array([0.4])
        want = reference_loglik_score_info(data, beta)
        for block in (1, 7, 1000):
            with mock.patch.object(estimators, "_EVENT_BLOCK", block):
                got = data.loglik_score_info(beta)
            assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("problem", [(TIME6, EVENT6, X6), ARM_STRATUM, TWO_COLUMNS,
                                         HALVING_OVERFLOW, HALVING_DECREASE, SINGULAR,
                                         SEPARATED_COLUMNS])
    def test_fits_and_evaluation_counts_do_not_move(self, monkeypatch, problem):
        # test_evaluation_counts' problems, in blocks of one event time
        calls = []
        evaluate = _CoxData.loglik_score_info

        def counted(self, beta):
            calls.append(beta)
            return evaluate(self, beta)

        monkeypatch.setattr(_CoxData, "loglik_score_info", counted)
        whole = cox_fit(*problem)
        whole_calls = len(calls)
        monkeypatch.setattr(estimators, "_EVENT_BLOCK", 1)
        blocked = cox_fit(*problem)
        assert fit_bytes(blocked) == fit_bytes(whole)
        assert len(calls) == 2 * whole_calls


def reference_sort_and_group(time, event):
    """_sort_and_group's four outputs from numpy's stable argsort (timsort)."""
    time, event = np.asarray(time, dtype=float), np.asarray(event, dtype=bool)
    order = np.argsort(time, kind="stable")
    time, event = time[order], event[order]
    first = np.flatnonzero(np.r_[True, time[1:] != time[:-1]])
    d = np.add.reduceat(event.astype(np.int64), first)
    return order, event, first[d > 0], d[d > 0]


# positive times of every kind the order meets: subnormal, tiny, huge
EXTREME_TIMES = np.array([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-14,
                          1.0, 1e9, 1e300, 1.7976931348623157e308])


@st.composite
def tied_samples(draw):
    """Times from numpy draws at any length up to 20000, in the tie patterns
    the period and Kaplan-Meier sorts meet, with at least one event."""
    kind = draw(st.sampled_from(["distinct", "all_tied", "one_run", "pairs",
                                 "few_values", "extreme"]))
    n = draw(st.integers(1, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "distinct":
        time = rng.permutation(np.linspace(0.5, 30.0, n))
    elif kind == "all_tied":
        time = np.full(n, 2.5)
    elif kind == "one_run":  # as in the first period: most rows censored at its end
        time = np.where(rng.random(n) < 0.8, 1.0, rng.uniform(0.01, 1.0, n))
    elif kind == "pairs":
        time = rng.permutation(np.repeat(rng.permutation(n // 2 + 1) + 1.0, 2)[:n])
    elif kind == "few_values":
        time = rng.integers(1, draw(st.integers(2, 6)), n).astype(float)
    else:
        time = rng.choice(EXTREME_TIMES, n)
    event = rng.random(n) < draw(st.sampled_from([0.05, 0.6, 1.0]))
    event[rng.integers(n)] = True
    return time, event


class TestStableOrder:
    """_sort_and_group's order is numpy's default argsort with each run of
    tied times put back in input order: exactly the stable permutation."""

    @settings(max_examples=300, deadline=None)
    @given(sample=tied_samples())
    @example(sample=(np.array([3.0]), np.array([True])))
    @example(sample=(np.array([2.0, 2.0]), np.array([False, True])))
    @example(sample=(np.array([2.0, 1.0]), np.array([True, False])))
    def test_equals_the_stable_argsort(self, sample):
        time, event = sample
        got = _sort_and_group(time, event)
        want = reference_sort_and_group(time, event)
        assert np.array_equal(got[0], np.argsort(time, kind="stable"))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def random_problem(n, p, seed):
    """A tied, censored sample of n rows with p covariates: a 0/1 arm, then
    continuous and small-integer columns."""
    rng = np.random.default_rng(seed)
    time = np.round(rng.exponential(4.0, n), 2) + 0.01
    event = rng.random(n) < 0.7
    x = np.column_stack([rng.integers(0, 2, n), rng.normal(0.0, 0.5, n),
                         rng.integers(0, 3, n)])[:, :p].astype(float)
    return time, event, x


def fit_bytes(fit):
    return (fit.coef.tobytes(), fit.se.tobytes(), np.float64(fit.loglik_at_max).tobytes(),
            fit.score_at_max.tobytes(), fit.iterations)


POOL_MAP = _pool.map


class TestCoxThreads:
    """The Cox work buffer's columns are suffix-summed on the survmix-cox
    threads from _POOL_ROWS rows on, one per usable CPU, and in the calling
    thread below; the fits get the same bytes either way."""

    def run(self, monkeypatch, cpus, f, *args):
        """f(*args) with `cpus` usable CPUs, and for each pooled column the
        number of columns pooled with it and the thread that ran it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        ran_in = []

        def recording_map(fn, items, name):
            def run(item):
                ran_in.append((len(items), threading.current_thread().name))
                return fn(item)
            return POOL_MAP(run, items, name)

        monkeypatch.setattr(_pool, "map", recording_map)
        return f(*args), ran_in

    def fits(self, time, event, x):
        fits = [cox_fit(time, event, x[:, :p]) for p in (1, 2, 3)]
        periods = period_specific_cox(time, event, x[:, :2], (1.0, 4.0))
        fits += [fit for fit in periods.fits if fit is not None]
        curves = [breslow_baseline(fit, time, event, x[:, :fit.coef.size])
                  for fit in fits[:3]]
        return ([fit_bytes(fit) for fit in fits],
                [[getattr(c, name).tobytes() for name in ("values", "variance")]
                 for c in curves])

    @pytest.mark.parametrize("n", [2_000, _POOL_ROWS + 1_000], ids=["below-cut", "above-cut"])
    def test_same_bytes_on_one_cpu_or_two(self, monkeypatch, n):
        problem = random_problem(n, 3, seed=n)
        one, one_ran = self.run(monkeypatch, 1, self.fits, *problem)
        two, two_ran = self.run(monkeypatch, 2, self.fits, *problem)
        assert one == two
        assert len(one[0]) == 5  # three fits and two periods
        caller = threading.current_thread().name
        if n < _POOL_ROWS:
            assert one_ran == two_ran == []
        else:
            # breslow_baseline's one column runs in the calling thread
            assert one_ran and {name for _, name in one_ran} == {caller}
            assert {items > 1 for items, _ in two_ran} == {True, False}
            assert all(name.startswith("survmix-cox") == (items > 1)
                       for items, name in two_ran)
        assert not any(t.name.startswith("survmix-cox") for t in threading.enumerate())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pooled_evaluation_equals_the_reference(self, monkeypatch, cpus):
        time, event, x = random_problem(_POOL_ROWS, 3, seed=7)
        data = _CoxData(time, event, x)
        beta = np.array([-0.4, 0.3, 0.2])
        got, ran_in = self.run(monkeypatch, cpus, data.loglik_score_info, beta)
        assert len(ran_in) == data._work.shape[0]
        for a, b in zip(got, reference_loglik_score_info(data, beta)):
            assert same_bits(a, b)


class TestMatvec:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_blocks_keep_the_bits_of_one_product(self, p):
        # every tail length, and the one-row tail that joins the block before it
        rng = np.random.default_rng(p)
        for n in (1, 2, 3, _MATVEC_ROWS - 1, _MATVEC_ROWS + 1, 2 * _MATVEC_ROWS + 2,
                  5 * _MATVEC_ROWS + 7, 100_003):
            a = rng.normal(0.0, 3.0, (n, p))
            v = rng.normal(0.0, 1.0, p)
            assert _matvec(a, v, np.empty(n)).tobytes() == (a @ v).tobytes(), n


class TestPeriodSpecificCox:
    def test_true_proportional_hazards_consistent_across_periods(self, single_rate_truth):
        ds = simulate(TrialConfig(truth=single_rate_truth, n_per_arm=5000, seed=23))
        pf = period_specific_cox(ds.observed_time, ds.event,
                                 ds.covariate_matrix(("arm",)), (2.0, 30.0),
                                 names=("arm",))
        assert pf.intervals == ((0.0, 2.0), (2.0, 30.0))
        for fit in pf.fits:
            assert fit is not None and fit.converged
            assert abs(fit.log_hr - np.log(0.5)) < 3 * fit.log_hr_se

    def test_mixture_periods_track_expected_limits(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=20_000, seed=29))
        cutpoints = (1.0, 4.0, 30.0)
        pf = period_specific_cox(ds.observed_time, ds.event,
                                 ds.covariate_matrix(("arm",)), cutpoints,
                                 names=("arm",))
        limits = [expected_period_loghr(two_point_truth, a, b)
                  for a, b in pf.intervals]
        for fit, limit in zip(pf.fits, limits):
            assert abs(fit.log_hr - limit) < 3 * fit.log_hr_se
        # attenuation pattern: the early period sits closest to the
        # stratum-wise log ratio, later periods drift toward zero
        estimates = [fit.log_hr for fit in pf.fits]
        assert np.argsort(estimates).tolist() == np.argsort(limits).tolist()
        assert abs(estimates[0] - np.log(0.5)) == min(
            abs(e - np.log(0.5)) for e in estimates)

    def test_empty_period_reported_not_raised(self):
        pf = period_specific_cox(TIME6, EVENT6, X6, (10.0, 20.0), names=("x",))
        assert pf.fits[0] is not None
        assert pf.fits[1] is None
        assert pf.n_events == (4, 0)

    def test_entry_bookkeeping(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=1000, seed=31))
        cutpoints = (1.0, 4.0, 30.0)
        pf = period_specific_cox(ds.observed_time, ds.event,
                                 ds.covariate_matrix(("arm",)), cutpoints)
        edges = (0.0,) + cutpoints
        for a, n_in in zip(edges[:-1], pf.n_entered):
            assert n_in == int((ds.observed_time >= a).sum())

    def test_constant_covariate_period_reported_not_raised(self):
        # the one event before 1.5 has x = 1: no maximum in that period
        pf = period_specific_cox(TIME6, EVENT6, X6, (1.5, 10.0), names=("x",))
        assert pf.fits[0] is None and pf.n_events == (1, 3)
        assert pf.fits[1] is not None

    def test_errors_other_than_constant_covariate_raise(self):
        with pytest.raises(ValueError, match="one covariate name per column"):
            period_specific_cox(TIME6, EVENT6, X6, (3.5, 10.0), names=("a", "b"))

    def test_bad_cutpoints_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            period_specific_cox(TIME6, EVENT6, X6, (4.0, 2.0))
        with pytest.raises(ValueError, match="increasing"):
            period_specific_cox(TIME6, EVENT6, X6, ())
        for cutpoints in ((float("nan"),), (1.0, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                period_specific_cox(TIME6, EVENT6, X6, cutpoints)

    @pytest.mark.parametrize("cutpoints", ["148", b"148", "2.5"], ids=["str", "bytes", "float-str"])
    def test_string_cutpoints_rejected(self, cutpoints):
        # "148" was split into the cutpoints 1, 4 and 8
        message = (f"^cutpoints must be a sequence of numbers, not the string "
                   f"{re.escape(repr(cutpoints))}$")
        with pytest.raises(ValueError, match=message):
            check_cutpoints(cutpoints)
        with pytest.raises(ValueError, match=message):
            period_specific_cox(TIME6, EVENT6, X6, cutpoints)


class TestBreslowBaseline:
    def test_zero_coefficient_reduces_to_nelson_aalen(self, two_point_truth):
        ds = simulate(TrialConfig(truth=two_point_truth, n_per_arm=300, seed=37))
        null_fit = CoxFit(names=("arm",), coef=np.zeros(1), se=np.ones(1),
                          iterations=0, converged=True, loglik_at_max=0.0,
                          score_at_max=np.zeros(1), n_events=int(ds.event.sum()))
        baseline = breslow_baseline(null_fit, ds.observed_time, ds.event,
                                    ds.covariate_matrix(("arm",)))
        na = nelson_aalen(ds.observed_time, ds.event)
        assert np.array_equal(baseline.times, na.times)
        assert baseline.values == pytest.approx(na.values, abs=1e-12)

    def test_six_record_hand_computation(self):
        fit = cox_fit(TIME6, EVENT6, X6, names=("x",))
        baseline = breslow_baseline(fit, TIME6, EVENT6, X6)
        eb = np.exp(fit.coef[0])
        hand = np.cumsum([1 / (4 * eb + 2), 1 / (3 * eb + 2),
                          1 / (2 * eb + 1), 1 / eb])
        assert np.array_equal(baseline.times, [1.0, 2.0, 4.0, 6.0])
        assert baseline.values == pytest.approx(hand, abs=1e-10)

    def test_recovers_control_cumulative_hazard(self, single_rate_truth):
        ds = simulate(TrialConfig(truth=single_rate_truth, n_per_arm=20_000, seed=41))
        fit = cox_fit_dataset(ds, covariates=("arm",))
        baseline = breslow_baseline(fit, ds.observed_time, ds.event,
                                    ds.covariate_matrix(("arm",)))
        assert abs(baseline.at(10.0) - 1.0) < 0.05  # control rate 0.1

    def test_requires_converged_fit(self):
        bad = CoxFit(names=("x",), coef=np.array([20.0]), se=np.array([1.0]),
                     iterations=50, converged=False, loglik_at_max=0.0,
                     score_at_max=np.array([1.0]), n_events=4)
        with pytest.raises(ValueError, match="converged"):
            breslow_baseline(bad, TIME6, EVENT6, X6)

    def test_more_columns_than_the_fit_rejected(self):
        fit = cox_fit(TIME6, EVENT6, X6)
        with pytest.raises(ValueError, match="columns do not match the fit"):
            breslow_baseline(fit, TIME6, EVENT6, np.column_stack([X6, X6]))

    @pytest.mark.parametrize("beta", [0.0, 0.7, -2.5])
    def test_covariate_constant_among_events_hand_sums(self, beta):
        # both events have x = 0: the partial likelihood has no maximum, but
        # given beta the baseline is still d_j / sum_risk exp(x beta)
        time, event, x = [4.0, 1.0, 3.0, 2.0], [0, 1, 0, 1], [1.0, 0.0, 1.0, 0.0]
        fit = CoxFit(names=("x",), coef=np.array([beta]), se=np.ones(1),
                     iterations=0, converged=True, loglik_at_max=0.0,
                     score_at_max=np.zeros(1), n_events=2)
        baseline = breslow_baseline(fit, time, event, x)
        eb = np.exp(beta)
        w_risk = np.array([2.0 + 2.0 * eb, 1.0 + 2.0 * eb])
        assert np.array_equal(baseline.times, [1.0, 2.0])
        assert np.array_equal(baseline.n_risk, [4, 3])
        assert np.array_equal(baseline.n_event, [1, 1])
        assert baseline.values == pytest.approx(np.cumsum(1.0 / w_risk), rel=1e-15)
        assert baseline.variance == pytest.approx(np.cumsum(1.0 / w_risk**2), rel=1e-15)

    def test_underflowing_risk_weight_square_gives_inf_variance_without_warning(self):
        # w_risk**2 of the last event time is subnormal: d / w_risk**2 overflowed
        # with a RuntimeWarning, while the baseline itself is finite
        time = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        event = np.array([0, 1, 1, 0, 1, 1], dtype=bool)
        x = np.column_stack([[0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 324.0, 0.0, 0.0, 0.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = cox_fit(time, event, x)
            assert fit.converged
            baseline = breslow_baseline(fit, time, event, x)
        assert np.all(np.isfinite(baseline.values))
        assert np.isfinite(baseline.variance[0]) and baseline.variance[-1] == np.inf

    def test_risk_weight_near_1e_minus_154_gives_accurate_variance(self):
        # w = exp(x beta) is about 1e-154 at the last event time, so w**2 is
        # subnormal, but the variance increment 1 / w**2 is finite
        time, event = np.array([1.0, 2.0]), np.array([1, 1], dtype=bool)
        x = np.full(2, math.log(1.1e-154))
        fit = CoxFit(names=("x",), coef=np.ones(1), se=np.ones(1), iterations=0,
                     converged=True, loglik_at_max=0.0, score_at_max=np.zeros(1),
                     n_events=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            baseline = breslow_baseline(fit, time, event, x)
        w = Fraction(float(np.exp(x[0])))
        assert np.finfo(float).tiny > float(w * w) > 0.0
        exact = [1 / (2 * w) ** 2, 1 / (2 * w) ** 2 + 1 / w ** 2]
        assert baseline.variance.tolist() == pytest.approx([float(v) for v in exact],
                                                           rel=4e-16)


# events tied with each other and with censored rows, censored rows tied with
# each other, and rows out of time order: every path of the sort and grouping
TIED_TIME = np.array([2.0, 1.0, 3.0, 2.0, 5.5, 1.0, 2.0, 4.0, 3.0, 6.0, 2.0, 5.5,
                      7.0, 3.0, 1.0, 4.0, 6.0, 0.5])
TIED_EVENT = np.array([1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1],
                      dtype=bool)
TIED_ARM = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0,
                     1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
TIED_SCORE = np.array([0.25, -1.5, 2.0, 0.75, -0.5, 1.25, 3.0, -2.25, 0.5, 1.0,
                       -0.75, 2.5, 0.0, 1.75, -1.0, 0.125, 2.25, -0.25])


def step_curve_digests(curve):
    """sha256 of the dtype, shape and bytes of each array of a StepCurve."""
    digests = {}
    for name in ("times", "values", "variance", "n_risk", "n_event"):
        a = np.ascontiguousarray(getattr(curve, name))
        header = f"{a.dtype.str}{a.shape}".encode()
        digests[name] = hashlib.sha256(header + a.tobytes()).hexdigest()
    return digests


def zero_fit(p):
    return CoxFit(names=tuple(f"x{j}" for j in range(p)), coef=np.zeros(p),
                  se=np.ones(p), iterations=0, converged=True, loglik_at_max=0.0,
                  score_at_max=np.zeros(p), n_events=int(TIED_EVENT.sum()))


def tied_step_curves():
    """Every step estimator of the tied sample, by name."""
    x1 = TIED_ARM
    x2 = np.column_stack([TIED_ARM, TIED_SCORE])
    fit1, fit2 = cox_fit(TIED_TIME, TIED_EVENT, x1), cox_fit(TIED_TIME, TIED_EVENT, x2)
    assert fit1.converged and fit2.converged
    return {
        "kaplan_meier": kaplan_meier(TIED_TIME, TIED_EVENT),
        "nelson_aalen": nelson_aalen(TIED_TIME, TIED_EVENT),
        "breslow_1d_fitted": breslow_baseline(fit1, TIED_TIME, TIED_EVENT, x1),
        "breslow_1d_zero": breslow_baseline(zero_fit(1), TIED_TIME, TIED_EVENT, x1),
        "breslow_2d_fitted": breslow_baseline(fit2, TIED_TIME, TIED_EVENT, x2),
        "breslow_2d_zero": breslow_baseline(zero_fit(2), TIED_TIME, TIED_EVENT, x2),
    }


# recorded from the estimators before they shared one sort-and-group step
STEP_CURVE_DIGESTS = {
    "kaplan_meier": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "8de471e1a8d3777ea17e47a8819e39d2ae10552ae8149ba0c987387a8e5cb6d7",
        "variance": "98c2114167ef60f59c4b993583af63dce1d58dfebbf738527b503112b10ed631",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
    "nelson_aalen": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "3480ab1a7b0e9e5645892027bf9c9909f1fb7f350df2e9a7317c337436744729",
        "variance": "15df3fd14767b9c6c5afc65c2504a4ffd29e0e3fe67a8f365df62a43ec350566",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
    "breslow_1d_fitted": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "265997c6852f8394adcfd295bacfa60ea6c0f38c57f8a654eb4920b2201109e5",
        "variance": "adad8630606bca54e895982607281c49421f187b11e250923638d4d9efba88b5",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
    "breslow_1d_zero": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "3480ab1a7b0e9e5645892027bf9c9909f1fb7f350df2e9a7317c337436744729",
        "variance": "15df3fd14767b9c6c5afc65c2504a4ffd29e0e3fe67a8f365df62a43ec350566",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
    "breslow_2d_fitted": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "f9f600f872d15e7aafc7041da2f2c8e8f0711326385d00da02306fc8ec99e8e4",
        "variance": "f196a74d2baab2da7188358e13e67d8d32f61dbd4a89d3e21a8043d8c27b8754",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
    "breslow_2d_zero": {
        "times": "18d1172c47208057111392b2dd695d47bf101feb6d02b5e104af0a0f18ad54ff",
        "values": "3480ab1a7b0e9e5645892027bf9c9909f1fb7f350df2e9a7317c337436744729",
        "variance": "15df3fd14767b9c6c5afc65c2504a4ffd29e0e3fe67a8f365df62a43ec350566",
        "n_risk": "07ddb63f2926deaab33ba8229e8478f2f7d645067c8111484d48b32eb1acae29",
        "n_event": "cd16582099323f229f37139b940d124c1eae22171565ed7c86904619f4e242a9",
    },
}


class TestStepCurveBytes:
    def test_arrays_keep_their_bytes(self):
        got = {name: step_curve_digests(curve)
               for name, curve in tied_step_curves().items()}
        assert got == STEP_CURVE_DIGESTS


class TestSampleRules:
    """Every entry point checks its sample through the rules of estimators:
    the error names the rule, the first row that breaks it and its value, or
    an arm's shape and the times'."""

    @pytest.mark.parametrize("call, message", [
        (lambda: kaplan_meier([1.0, 2.0, 3.0], [1, 0.5, 2]),
         "row 1: event must be 0 or 1, got 0.5"),
        (lambda: kaplan_meier([1.0, 2.0, 3.0], [1, 0, 2]),
         "row 2: event must be 0 or 1, got 2"),
        (lambda: kaplan_meier([1.0, np.inf, 3.0], [1, 1, 1]),
         "row 1: time must be finite and > 0, got inf"),
        (lambda: nelson_aalen([1.0, 2.0, np.nan], [1, 1, 1]),
         "row 2: time must be finite and > 0, got nan"),
        (lambda: cox_fit(TIME6, EVENT6, np.where(TIME6 == 5.0, np.nan, X6)),
         "row 4: covariate 0 must be finite, got nan"),
        (lambda: cox_fit(np.where(TIME6 == 2.0, np.inf, TIME6), EVENT6, X6),
         "row 1: time must be finite and > 0, got inf"),
        (lambda: period_specific_cox(TIME6, [1, 0.5, 0, 1, 0, 1], X6, (3.5,)),
         "row 1: event must be 0 or 1, got 0.5"),
        (lambda: period_specific_cox(TIME6, EVENT6, np.where(TIME6 == 6.0, -np.inf, X6),
                                     (3.5,)),
         "row 5: covariate 0 must be finite, got -inf"),
        (lambda: cox_log_hr_stack(np.tile(TIME6, (2, 1)), [EVENT6, [1, 1, 0, 2, 0, 1]], X6),
         "row 3 of sample 1: event must be 0 or 1, got 2"),
        (lambda: cox_log_hr_stack(np.tile(TIME6, (2, 1)), np.tile(EVENT6, (2, 1)),
                                  [1, 0, 1, 0, 2, 1]),
         "row 4: arm must be 0 or 1, got 2"),
        (lambda: breslow_baseline(cox_fit(TIME6, EVENT6, X6), TIME6, EVENT6,
                                  np.where(TIME6 == 3.0, np.nan, X6)),
         "row 2: covariate 0 must be finite, got nan"),
        (lambda: EstimatedCurves.from_sample([1.0, 2.0, 3.0], [1, 1, 1], [0, 1]),
         "arm has shape (2,) but the times have shape (3,)"),
        (lambda: cox_log_hr_stack(np.tile(TIME6, (2, 1)), np.tile(EVENT6, (2, 1)), X6[:5]),
         "arm has shape (5,) but the times have shape (2, 6)"),
        (lambda: cox_log_hr_stack(np.tile(TIME6, (2, 1)), np.tile(EVENT6, (2, 1)),
                                  np.tile(X6, (3, 1))),
         "arm has shape (3, 6) but the times have shape (2, 6)"),
    ])
    def test_bad_value_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_bad_time_named_in_input_order(self):
        # the first bad row of the input, not of the sorted sample
        time = [5.0, np.inf, 3.0, -1.0, 2.0]
        with pytest.raises(ValueError, match="^row 1: time must be finite and > 0, got inf$"):
            kaplan_meier(time, [1, 1, 1, 1, 1])

    def test_bool_and_integer_flags_agree(self):
        assert cox_fit(TIME6, EVENT6, X6).coef.tobytes() == \
            cox_fit(TIME6, EVENT6.astype(int), X6).coef.tobytes()
        time = np.tile(TIME6, (2, 1))
        assert cox_log_hr_stack(time, np.tile(EVENT6, (2, 1)), X6.astype(bool)).tobytes() \
            == cox_log_hr_stack(time, np.tile(EVENT6, (2, 1)).astype(float), X6).tobytes()


@st.composite
def samples(draw):
    """A right-censored two-arm sample with one more covariate, often tied."""
    n = draw(st.integers(2, 24))
    times = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 4.5, 7.0]), st.floats(0.01, 100.0))
    time = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    event = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    arm = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    z = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    assume(event.any())
    return time, event, arm, z


def outcome(fn, *args):
    """The result of fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def curve_bytes(curve):
    return [getattr(curve, name).tobytes()
            for name in ("values", "variance", "n_risk", "n_event")]


# a separated sample whose first Newton step, to beta = (768, -768), overflows
# exp(x beta) on a censored row that no risk set reads
SEPARATED = (np.array([1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0]),
             np.array([False, True, False, False, True, False, False]),
             np.array([0, 0, 0, 0, 1, 0, 0]), np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0**-9, -1.0]))


class TestMetamorphic:
    @settings(max_examples=100, deadline=None)
    @given(sample=samples())
    @example(sample=SEPARATED)
    def test_doubled_times_keep_every_estimate(self, sample):
        time, event, arm, z = sample
        x = np.column_stack([arm, z])
        for estimator in (kaplan_meier, nelson_aalen):
            curve, doubled = estimator(time, event), estimator(2.0 * time, event)
            assert doubled.times.tobytes() == (2.0 * curve.times).tobytes()
            assert curve_bytes(doubled) == curve_bytes(curve)
        fit, doubled = outcome(cox_fit, time, event, x), outcome(cox_fit, 2.0 * time, event, x)
        if isinstance(fit, str):
            assert doubled == fit
            return
        assert doubled.coef.tobytes() == fit.coef.tobytes()
        if fit.converged:
            curve = breslow_baseline(fit, time, event, x)
            doubled = breslow_baseline(doubled, 2.0 * time, event, x)
            assert doubled.times.tobytes() == (2.0 * curve.times).tobytes()
            assert curve_bytes(doubled) == curve_bytes(curve)

    @settings(max_examples=200, deadline=None)
    @given(time=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=2, max_size=8),
           data=st.data())
    @example(time=list(SEPARATED[0]), data=None)
    def test_separated_samples_fit_without_warnings(self, time, data):
        # a step out to |beta| in the hundreds overflows exp(x beta); the fits
        # end, converged or not, without a numpy warning. breslow_baseline is
        # left out: its variance overflows on some converged fits
        n = len(time)
        if data is None:
            event, arm, z = SEPARATED[1:]
        else:
            event = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            arm = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
            z = np.array(data.draw(st.lists(
                st.sampled_from([0.0, 1.0, -1.0, 2.0**-9, 2.5, -3.0]) | st.floats(-1e3, 1e3),
                min_size=n, max_size=n)))
        time, x = np.array(time), np.column_stack([arm, z])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome(cox_fit, time, event, x)
            if event.any():
                cox_log_hr_stack(time[None], event[None], arm)

    @settings(max_examples=100, deadline=None)
    @given(sample=samples())
    def test_duplicated_rows_double_the_counts(self, sample):
        time, event = sample[:2]
        curve = kaplan_meier(time, event)
        doubled = kaplan_meier(np.tile(time, 2), np.tile(event, 2))
        assert doubled.times.tobytes() == curve.times.tobytes()
        assert doubled.values.tobytes() == curve.values.tobytes()
        assert np.array_equal(doubled.n_risk, 2 * curve.n_risk)
        assert np.array_equal(doubled.n_event, 2 * curve.n_event)

    @settings(max_examples=100, deadline=None)
    @given(sample=samples())
    def test_relabelled_arm_negates_the_log_hr(self, sample):
        time, event, arm = sample[:3]
        fit, flipped = outcome(cox_fit, time, event, arm), outcome(cox_fit, time, event, 1 - arm)
        if isinstance(fit, str):
            assert isinstance(flipped, str)
        else:
            assert flipped.converged == fit.converged
            if fit.converged:
                assert flipped.log_hr == pytest.approx(-fit.log_hr, abs=1e-10)
        stack = cox_log_hr_stack(time[None], event[None], arm)
        flipped = cox_log_hr_stack(time[None], event[None], 1 - arm)
        assert np.isnan(flipped[0]) == np.isnan(stack[0])
        if np.isfinite(stack[0]):
            assert flipped[0] == pytest.approx(-stack[0], abs=1e-10)
