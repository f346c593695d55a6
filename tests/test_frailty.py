import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import survmix
from survmix import (CurveTable, MixtureArm, TwoArmTruth, cumulative_hazard,
                     default_grid, hazard_ratio, limit_hazard_ratio,
                     marginal_density, marginal_hazard, marginal_survival,
                     survivor_composition, truth_curves)
from survmix.frailty import _BLOCK, _composition, _mixture, _strata_sum

from conftest import mixture_arms

# frozen from a 50-digit evaluation of the closed forms for the
# two_point_truth fixture (weights .5/.5, control rates .1/.5,
# research rates .05/.25)
S_CONTROL_AT_1 = 0.7556840388742965
H_CONTROL_AT_1 = 0.2605249359550192
F_CONTROL_AT_1 = 0.19687453582995634
CUMHAZ_CONTROL_AT_1 = 0.28013192815999266
HR_AT_1 = 0.5375040205812843
TINY = np.finfo(float).tiny  # smallest normal float


class TestMixtureArmValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureArm(weights=(0.5, 0.4), rates=(0.1, 0.5))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="> 0"):
            MixtureArm(weights=(1.5, -0.5), rates=(0.1, 0.5))

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="rates"):
            MixtureArm(weights=(0.5, 0.5), rates=(0.1, -0.5))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal-length"):
            MixtureArm(weights=(1.0,), rates=(0.1, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MixtureArm(weights=(), rates=())


class TestMarginalSurvival:
    def test_single_component_is_exponential(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.1,))
        assert marginal_survival(arm, 10.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_two_point_value(self, two_point_truth):
        assert marginal_survival(two_point_truth.control, 1.0) == pytest.approx(
            S_CONTROL_AT_1, abs=1e-14)

    def test_one_at_time_zero(self, two_point_truth):
        assert marginal_survival(two_point_truth.control, 0.0) == 1.0
        assert marginal_survival(two_point_truth.research, 0.0) == 1.0

    def test_negative_time_rejected(self, two_point_truth):
        with pytest.raises(ValueError, match=">= 0"):
            marginal_survival(two_point_truth.control, -0.5)

    def test_vectorised_matches_scalar(self, two_point_truth):
        grid = np.array([0.0, 0.5, 2.0, 10.0])
        vec = marginal_survival(two_point_truth.control, grid)
        assert vec == pytest.approx(
            [marginal_survival(two_point_truth.control, t) for t in grid], abs=0)


class TestMarginalHazard:
    def test_starts_at_mean_rate(self, two_point_truth):
        # 50:50 survivors at t=0, so the hazard is the plain average of rates
        assert marginal_hazard(two_point_truth.control, 0.0) == pytest.approx(0.3, abs=1e-15)
        assert marginal_hazard(two_point_truth.research, 0.0) == pytest.approx(0.15, abs=1e-15)

    def test_two_point_value(self, two_point_truth):
        assert marginal_hazard(two_point_truth.control, 1.0) == pytest.approx(
            H_CONTROL_AT_1, abs=1e-13)

    def test_single_component_constant(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.25,))
        for t in (0.0, 0.7, 13.0, 400.0):
            assert marginal_hazard(arm, t) == pytest.approx(0.25, abs=1e-13)

    def test_finite_difference_cross_check(self, two_point_truth):
        # h(t) must equal -d/dt log S(t); central difference at step 1e-6
        for arm in (two_point_truth.control, two_point_truth.research):
            for t in (0.3, 1.0, 5.0, 20.0):
                eps = 1e-6 * max(1.0, t)
                approx = -(math.log(marginal_survival(arm, t + eps))
                           - math.log(marginal_survival(arm, t - eps))) / (2 * eps)
                assert marginal_hazard(arm, t) == pytest.approx(approx, abs=1e-5)

    def test_negative_time_rejected(self, two_point_truth):
        with pytest.raises(ValueError):
            marginal_hazard(two_point_truth.control, -1e-9)

    @given(arm=mixture_arms(), t=st.floats(0.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_rates(self, arm, t):
        h = marginal_hazard(arm, t)
        assert min(arm.rates) - 1e-12 <= h <= max(arm.rates) + 1e-12
        if t > 0 and len(set(arm.rates)) > 1:
            assert h < np.dot(arm.weights, arm.rates) + 1e-12

    @given(arm=mixture_arms(), t1=st.floats(0.0, 30.0), t2=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_time(self, arm, t1, t2):
        lo, hi = sorted((t1, t2))
        assert marginal_hazard(arm, hi) <= marginal_hazard(arm, lo) + 1e-12

    @given(arm=mixture_arms(), t=st.floats(0.0, 20.0), c=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_time_rate_scaling(self, arm, t, c):
        scaled = MixtureArm(weights=arm.weights, rates=tuple(r * c for r in arm.rates))
        left = marginal_hazard(scaled, t)
        right = c * marginal_hazard(arm, c * t)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


class TestMarginalDensity:
    def test_density_at_zero_is_rate(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.5,))
        assert marginal_density(arm, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_two_point_value(self, two_point_truth):
        assert marginal_density(two_point_truth.control, 1.0) == pytest.approx(
            F_CONTROL_AT_1, abs=1e-14)

    def test_tail_vanishes(self, two_point_truth):
        assert marginal_density(two_point_truth.control, 500.0) < 1e-20

    @given(arm=mixture_arms(), t=st.floats(0.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_equals_hazard_times_survival(self, arm, t):
        # h * S against the direct sum of positive terms, relative down to the
        # smallest normal float, below which both have lost digits
        direct = sum(w * r * math.exp(-r * t) for w, r in zip(arm.weights, arm.rates))
        assert marginal_density(arm, t) == pytest.approx(direct, rel=1e-12, abs=TINY)

    def test_integrates_to_event_probability(self, two_point_truth):
        # fine trapezoid of f over [0, T] vs 1 - S(T)
        for arm in (two_point_truth.control, two_point_truth.research):
            t = np.linspace(0.0, 30.0, 200_001)
            integral = np.trapezoid(marginal_density(arm, t), t)
            assert integral == pytest.approx(1.0 - marginal_survival(arm, 30.0), abs=1e-8)


class TestCumulativeHazard:
    def test_zero_at_zero(self, two_point_truth):
        assert cumulative_hazard(two_point_truth.control, 0.0) == 0.0

    def test_single_component_linear(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.1,))
        assert cumulative_hazard(arm, 10.0) == pytest.approx(1.0, abs=1e-13)

    def test_two_point_value(self, two_point_truth):
        assert cumulative_hazard(two_point_truth.control, 1.0) == pytest.approx(
            CUMHAZ_CONTROL_AT_1, abs=1e-13)

    @given(arm=mixture_arms(), t=st.floats(0.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_exp_recovers_survival(self, arm, t):
        # relative where S is a normal float; a subnormal or zero S has lost
        # its digits, and there H must lie past -log(tiny)
        surv, cumh = marginal_survival(arm, t), cumulative_hazard(arm, t)
        assert cumh >= 0.0
        if surv >= TINY:
            assert math.exp(-cumh) == pytest.approx(surv, rel=1e-12, abs=0)
        else:
            assert cumh >= -math.log(TINY)

    def test_strictly_increasing(self, two_point_truth):
        grid = np.linspace(0.0, 30.0, 301)
        values = cumulative_hazard(two_point_truth.control, grid)
        assert np.all(np.diff(values) > 0)


class TestSurvivorComposition:
    def test_prior_weights_at_zero(self, two_point_truth):
        comp = survivor_composition(two_point_truth.control, 0.0)
        assert comp == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_concentrates_on_low_rate_stratum(self, two_point_truth):
        comp = survivor_composition(two_point_truth.control, 100.0)
        assert comp[0] > 1.0 - 1e-9

    def test_single_component_trivial(self):
        arm = MixtureArm(weights=(1.0,), rates=(0.3,))
        for t in (0.0, 5.0, 1e6):
            assert survivor_composition(arm, t) == pytest.approx([1.0], abs=0)

    def test_no_underflow_at_extreme_times(self, two_point_truth):
        comp = survivor_composition(two_point_truth.control, 1e5)
        assert np.isfinite(comp).all() and comp.sum() == pytest.approx(1.0, abs=1e-12)

    @given(arm=mixture_arms(), t=st.floats(0.0, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, arm, t):
        assert survivor_composition(arm, t).sum() == pytest.approx(1.0, abs=1e-12)

    @given(arm=mixture_arms(), t1=st.floats(0.0, 50.0), t2=st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_low_rate_share_grows(self, arm, t1, t2):
        lo, hi = sorted((t1, t2))
        k_min = int(np.argmin(arm.rates))
        assert survivor_composition(arm, hi)[k_min] >= \
            survivor_composition(arm, lo)[k_min] - 1e-12


class TestHazardRatio:
    def test_half_at_zero(self, two_point_truth):
        assert abs(hazard_ratio(two_point_truth, 0.0) - 0.5) < 1e-12

    def test_two_point_value(self, two_point_truth):
        assert hazard_ratio(two_point_truth, 1.0) == pytest.approx(HR_AT_1, abs=1e-13)

    def test_identical_arms_give_one(self, two_point_truth):
        same = TwoArmTruth(two_point_truth.control, two_point_truth.control)
        for t in (0.0, 1.0, 10.0, 100.0):
            assert hazard_ratio(same, t) == pytest.approx(1.0, abs=1e-13)

    def test_never_below_stratum_ratio(self, two_point_truth):
        # stratum-wise ratios are a common 0.5; the marginal ratio sits above
        grid = np.linspace(0.0, 60.0, 1201)
        values = hazard_ratio(two_point_truth, grid)
        assert np.all(values >= 0.5 - 1e-12)

    def test_reverts_to_limit_at_both_ends(self, two_point_truth):
        assert abs(hazard_ratio(two_point_truth, 0.0) - 0.5) < 1e-12
        assert abs(hazard_ratio(two_point_truth, 200.0) - 0.5) < 1e-6


class TestLimitHazardRatio:
    def test_two_point_value(self, two_point_truth):
        assert limit_hazard_ratio(two_point_truth) == 0.5

    def test_identical_arms(self, two_point_truth):
        same = TwoArmTruth(two_point_truth.control, two_point_truth.control)
        assert limit_hazard_ratio(same) == 1.0

    def test_general_mixture_limit_matches_tail(self):
        truth = TwoArmTruth(
            control=MixtureArm(weights=(0.5, 0.5), rates=(0.2, 0.6)),
            research=MixtureArm(weights=(0.5, 0.5), rates=(0.3, 0.9)),
        )
        assert limit_hazard_ratio(truth) == pytest.approx(1.5, abs=1e-15)
        assert hazard_ratio(truth, 200.0) == pytest.approx(1.5, abs=1e-6)

    def test_tied_minimum_rate_rejected(self):
        tied = MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.1))
        research = MixtureArm(weights=(1.0,), rates=(0.05,))
        with pytest.raises(ValueError, match="tied minimum rate"):
            limit_hazard_ratio(TwoArmTruth(control=tied, research=research))


class TestTruthCurves:
    def test_single_point_grid(self, two_point_truth):
        table = truth_curves(two_point_truth, np.array([0.0]))
        assert len(table) == 1
        assert table.survival_control[0] == 1.0
        assert table.survival_research[0] == 1.0
        assert table.hazard_control[0] == pytest.approx(0.3, abs=1e-15)
        assert table.hazard_research[0] == pytest.approx(0.15, abs=1e-15)
        assert abs(table.hazard_ratio[0] - 0.5) < 1e-12

    def test_ratio_rises_then_returns(self, two_point_truth):
        table = truth_curves(two_point_truth, default_grid())
        ratio = table.hazard_ratio
        peak = int(np.argmax(ratio))
        assert 0 < peak < len(table) - 1
        assert ratio[peak] > 0.51
        assert abs(ratio[0] - 0.5) < 1e-12
        assert ratio[-1] < ratio[peak]
        assert ratio[-1] - 0.5 < 0.1

    def test_identical_arms_flat_ratio(self, two_point_truth):
        same = TwoArmTruth(two_point_truth.control, two_point_truth.control)
        table = truth_curves(same, default_grid(points=101))
        assert table.hazard_ratio == pytest.approx(np.ones(101), abs=1e-13)

    def test_table_invariants(self, two_point_truth):
        table = truth_curves(two_point_truth, default_grid())
        for label in ("control", "research"):
            surv = getattr(table, f"survival_{label}")
            cumh = getattr(table, f"cum_hazard_{label}")
            assert np.all(np.diff(surv) < 0)
            assert np.all((surv > 0) & (surv <= 1))
            assert np.max(np.abs(cumh + np.log(surv))) < 1e-10

    def test_late_times_reach_zero_survival(self, two_point_truth):
        # S underflows through the subnormals to 0.0 while H stays finite
        table = truth_curves(two_point_truth, np.linspace(0.0, 8000.0, 80001))
        surv = table.survival_control
        assert surv[-1] == 0.0
        assert np.any((surv > 0.0) & (surv < TINY))
        assert table.cum_hazard_control[-1] == pytest.approx(800 + math.log(2), rel=1e-15)
        assert table.hazard_control[-1] == pytest.approx(0.1, rel=1e-15)
        assert table.hazard_ratio[-1] == pytest.approx(0.5, rel=1e-15)
        cumh = table.cum_hazard_control.copy()
        cumh[-1] = 700.0  # short of -log(tiny) where S = 0
        with pytest.raises(ValueError, match="cum_hazard_control"):
            replace(table, cum_hazard_control=cumh)

    def test_weights_summing_to_one_within_tolerance(self):
        # the float sum of these weights is 0.9999999999999999
        uneven = TwoArmTruth(
            control=MixtureArm(weights=(0.7, 0.2, 0.1), rates=(1.0, 0.5, 0.1)),
            research=MixtureArm(weights=(0.7, 0.2, 0.1), rates=(0.5, 0.25, 0.05)),
        )
        table = truth_curves(uneven, default_grid(points=11))
        assert table.survival_control[0] == pytest.approx(1.0, abs=1e-15)
        # -(top + log sum) is -1.1e-16 here before the clamp at 0
        assert table.cum_hazard_control[0] == 0.0 == table.cum_hazard_research[0]
        assert table.hazard_control[0] == pytest.approx(0.81, abs=1e-15)
        # S(0) one rounding step either side of 1 is accepted
        for s0 in (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            surv = table.survival_control.copy()
            surv[0] = s0
            assert replace(table, survival_control=surv).survival_control[0] == s0

    def test_bad_grids_rejected(self, two_point_truth):
        with pytest.raises(ValueError):
            truth_curves(two_point_truth, np.array([]))
        with pytest.raises(ValueError):
            truth_curves(two_point_truth, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            truth_curves(two_point_truth, np.array([-1.0, 1.0]))
        for grid in ([0.0, np.nan], [0.0, 1.0, np.inf], [np.nan]):
            with pytest.raises(ValueError, match="finite"):
                truth_curves(two_point_truth, np.array(grid))
        for t_min, t_max in ((0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                default_grid(t_min, t_max)

    def test_rates_times_past_the_largest_float(self):
        # a stratum's rate * t past the largest float is an exact 0 term,
        # without a warning; where every stratum's is, H is refused
        big = 1.7976931348623157e308
        truth = TwoArmTruth(control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, big)),
                            research=MixtureArm(weights=(0.5, 0.5), rates=(1e308, 0.25)))
        grid = default_grid(points=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = truth_curves(truth, grid)
            composition = survivor_composition(truth.control, grid)
            # a research hazard at 0 over the control's past the largest float
            steep = replace(truth, control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.5)),
                            research=MixtureArm(weights=(0.5, 0.5), rates=(big, 0.25)))
            ratio = hazard_ratio(steep, grid)
            steep_ratio = truth_curves(steep, grid).hazard_ratio
        assert table.survival_control[1] == pytest.approx(0.5 * math.exp(-0.3), rel=1e-15)
        assert table.hazard_control[1] == 0.1
        assert np.array_equal(composition[:, 1:], [[1.0] * 10, [0.0] * 10])
        assert np.array_equal(steep_ratio, ratio) and ratio[0] == math.inf
        alone = TwoArmTruth(control=MixtureArm(weights=(1.0,), rates=(1e308,)),
                            research=MixtureArm(weights=(1.0,), rates=(0.05,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cum_hazard_control"):
                truth_curves(alone, grid)

    def test_grid_ends_near_the_largest_float(self):
        # linspace's arithmetic overflows on the way to a finite grid, or to
        # one that check_grid refuses: neither warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = default_grid(0.0, 1.7976931348623157e308, 7)
            assert np.isfinite(grid).all() and grid[-1] == 1.7976931348623157e308
            with pytest.raises(ValueError, match="finite, strictly increasing"):
                default_grid(-1e308, 1.7e308, 3)

    def test_curve_table_rejects_inconsistent_columns(self, two_point_truth):
        table = truth_curves(two_point_truth, default_grid(points=11))
        with pytest.raises(ValueError, match="cum_hazard"):
            CurveTable(
                grid=table.grid,
                survival_control=table.survival_control,
                survival_research=table.survival_research,
                hazard_control=table.hazard_control,
                hazard_research=table.hazard_research,
                cum_hazard_control=table.cum_hazard_control + 1e-6,
                cum_hazard_research=table.cum_hazard_research,
            )


    @pytest.mark.parametrize("column, bad, message", [
        ("survival_research", lambda c: c[:-1], "survival_research does not match the grid"),
        ("cum_hazard_control", lambda c: c[1:], "cum_hazard_control does not match the grid"),
        ("survival_control", lambda c: np.r_[c[:-1], c[-3]],
         "survival_control must be non-increasing in [0, 1]"),
        ("survival_research", lambda c: np.r_[0.99, c[1:]],
         "survival_research must equal 1 at t=0"),
        ("hazard_control", lambda c: np.r_[c[:5], 0.0, c[6:]], "hazard_control must be positive"),
        ("hazard_research", lambda c: -c, "hazard_research must be positive"),
    ])
    def test_curve_table_rejects_each_bad_column(self, two_point_truth, column, bad, message):
        table = truth_curves(two_point_truth, default_grid(points=11))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(table, **{column: bad(getattr(table, column))})

    def test_hazard_ratio_is_derived(self, two_point_truth):
        table = truth_curves(two_point_truth, default_grid(points=11))
        assert "hazard_ratio" not in {field.name for field in fields(CurveTable)}
        assert table.hazard_ratio.tobytes() == \
            (table.hazard_research / table.hazard_control).tobytes()
        halved = replace(table, hazard_research=table.hazard_research / 2)
        assert halved.hazard_ratio.tobytes() == (table.hazard_ratio / 2).tobytes()

    @pytest.mark.parametrize("points", [2.5, 3.0, "3", True])
    def test_grid_points_must_be_an_integer(self, points):
        # 2.5 made a 2-point grid, True a 1-point one
        with pytest.raises(ValueError, match=f"^grid points must be an integer, got "
                                             f"{re.escape(repr(points))}$"):
            default_grid(0.0, 30.0, points)
        assert default_grid(0.0, 30.0, np.int64(3)).tolist() == [0.0, 15.0, 30.0]


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.int64)


class TestFixedOrderEvaluation:
    """Every strata sum runs left to right, so a time gets the same bits
    whatever block it falls in, and as a scalar."""

    UNEVEN = MixtureArm(weights=(0.7, 0.2, 0.1), rates=(1.0, 0.5, 0.1))

    def test_scalar_zero_matches_every_grid(self):
        scalar = [_bits(f(self.UNEVEN, 0.0)) for f in
                  (marginal_survival, cumulative_hazard, marginal_hazard)]
        for n in range(2, 602):
            grid = np.linspace(0.0, 30.0, n)
            for value, f in zip(scalar, (marginal_survival, cumulative_hazard,
                                         marginal_hazard)):
                assert value == _bits(f(self.UNEVEN, grid)[0]), (f.__name__, n)

    @given(arm=mixture_arms(max_strata=40),
           steps=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=60),
           start=st.sampled_from([0.0, 0.5, 700.0]))
    @settings(max_examples=60, deadline=None)
    def test_same_bits_for_any_block(self, arm, steps, start):
        grid = start + np.cumsum([0.0] + steps[:-1])
        n = grid.size
        want = _mixture(arm, grid)
        assert np.all(want[1] >= 0.0)
        # block n - 1 leaves a one-point tail for n >= 3, as 2 does for odd n
        for block in {1, 2, 3, max(n - 1, 1), n + 1, _BLOCK}:
            assert np.array_equal(_bits(_mixture(arm, grid, block)), _bits(want)), block
        for i, t in enumerate(grid):
            assert np.array_equal(_bits(_mixture(arm, np.asarray(t))), _bits(want[:, i]))

    def test_default_block_with_one_point_tail(self):
        # more than 8 strata, where numpy's pairwise order differs from
        # left to right
        arm = MixtureArm(weights=(1 / 40,) * 40,
                         rates=tuple(0.02 * 1.1 ** k for k in range(40)))
        grid = np.linspace(0.0, 60.0, 2 * _BLOCK + 1)
        want = _mixture(arm, grid, block=grid.size)
        assert np.array_equal(_bits(_mixture(arm, grid)), _bits(want))

    def test_strata_sum_is_left_to_right(self):
        # guards numpy's row order for axis-0 reductions, which the
        # fixed-order evaluation rests on, at numpy's default buffer size and
        # at the one _mixture sets around its blocks
        for bufsize in (np.getbufsize(), _BLOCK):
            rng = np.random.default_rng(20260808)
            with np.errstate():
                np.setbufsize(bufsize)
                for width in range(1, 65):
                    k = int(rng.integers(1, 300))
                    terms = np.exp(rng.uniform(-30.0, 5.0, size=(k, width + 3)))
                    for block in (terms, terms[:, 2:2 + width]):
                        want = []
                        for column in block.T.tolist():
                            total = column[0]
                            for value in column[1:]:
                                total += value
                            want.append(total)
                        assert np.array_equal(_bits(_strata_sum(block)), _bits(want)), \
                            (bufsize, k, width)

    # 256 strata x 2e5 points: K x P temporaries would need > 800 MB. The
    # child prints its own peak RSS in KiB: VmHWM on Linux, where ru_maxrss
    # starts from the high-water mark of the process that spawned it, and
    # ru_maxrss elsewhere
    GRID_CHILD = (
        "import resource, numpy as np\n"
        "from survmix import MixtureArm, TwoArmTruth, truth_curves\n"
        "k = 256\n"
        "rates = [0.02 * 100.0 ** (i / (k - 1)) for i in range(k)]\n"
        "truth = TwoArmTruth(MixtureArm([1 / k] * k, rates),\n"
        "                    MixtureArm([1 / k] * k, [r / 2 for r in rates]))\n"
        "truth_curves(truth, np.linspace(0.0, 60.0, 200_000))\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(next(int(line.split()[1]) for line in fh\n"
        "                   if line.startswith('VmHWM:')))\n"
        "except OSError:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")

    def grid_child_peak_mb(self, code):
        package_root = os.path.dirname(os.path.dirname(survmix.__file__))
        env = dict(os.environ, PYTHONPATH=package_root, GRID_CHILD=self.GRID_CHILD)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, f"exit {result.returncode}: {result.stderr}"
        return int(result.stdout.split()[-1]) / 1024

    def test_memory_does_not_grow_with_the_grid(self):
        peak_mb = self.grid_child_peak_mb(self.GRID_CHILD)
        assert peak_mb < 200.0, f"peak RSS {peak_mb:.1f} MB"

    def test_memory_bound_reads_the_child_not_its_parent(self):
        # a parent that peaked at 300 MB before it spawned the child
        parent = ("import os, subprocess, sys\n"
                  "import numpy as np\n"
                  "block = np.ones(300 * 2**20 // 8)\n"
                  "del block\n"
                  "sys.exit(subprocess.run([sys.executable, '-c',\n"
                  "                         os.environ['GRID_CHILD']]).returncode)\n")
        peak_mb = self.grid_child_peak_mb(parent)
        assert peak_mb < 200.0, f"peak RSS {peak_mb:.1f} MB"


def truth_threads():
    return sum(t.name.startswith("survmix-truth") for t in threading.enumerate())


def geometric_arm(k):
    """k equal weights, rates geometric from 0.02 to 2.0 (the benchmark's arm)."""
    rates = [0.02 * 100.0 ** (i / max(k - 1, 1)) for i in range(k)]
    return MixtureArm(weights=(1 / k,) * k, rates=tuple(rates))


class TestTruthThreads:
    """_mixture evaluates its blocks of _BLOCK times on a pool of at most two
    survmix-truth threads, one per usable CPU, each with its own scratch; one
    block, or one CPU, is evaluated in the calling thread."""

    # 1 and 2 full blocks, and 7 full blocks with a one-point tail
    POINTS = [_BLOCK, 2 * _BLOCK, 7 * _BLOCK + 1]

    def run(self, monkeypatch, cpus, f, *args, error=None, fail_from=None):
        """f(*args) with `cpus` usable CPUs, and the live truth threads at
        each block; the block that starts at time `fail_from` raises `error`."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        alive = []

        def recording_composition(arm, t, out):
            alive.append(truth_threads())
            if t[0] == fail_from:
                raise error
            return _composition(arm, t, out)

        monkeypatch.setattr(survmix.frailty, "_composition", recording_composition)
        return f(*args), alive

    def run_threaded(self, monkeypatch, f, *args):
        """run() with two usable CPUs, the two threads interleaved finely."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return self.run(monkeypatch, 2, f, *args)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("k", [1, 3, 256])
    @pytest.mark.parametrize("points", POINTS, ids=["1-block", "2-blocks", "7-blocks-tail"])
    def test_same_bytes_on_one_cpu_or_two(self, monkeypatch, k, points):
        arm = geometric_arm(k)
        # out to t = 600, where the fastest strata underflow
        grid = np.linspace(0.0, 600.0, points)
        blocks = -(-points // _BLOCK)
        threaded, alive = self.run_threaded(monkeypatch, _mixture, arm, grid)
        assert truth_threads() == 0
        serial, serial_alive = self.run(monkeypatch, 1, _mixture, arm, grid)
        assert truth_threads() == 0
        whole, _ = self.run(monkeypatch, 1, _mixture, arm, grid, grid.size)
        assert threaded.tobytes() == serial.tobytes() == whole.tobytes()
        assert len(alive) == len(serial_alive) == blocks
        # one block, or one CPU, is evaluated in the calling thread
        assert (min(alive) >= 1) == (blocks > 1) and max(alive) <= min(2, blocks)
        assert set(serial_alive) == {0}

    @pytest.mark.parametrize("points", POINTS, ids=["1-block", "2-blocks", "7-blocks-tail"])
    def test_truth_curves_same_bytes_on_one_cpu_or_two(self, monkeypatch, points):
        arm = geometric_arm(256)
        truth = TwoArmTruth(arm, MixtureArm(arm.weights, tuple(r / 2 for r in arm.rates)))
        grid = np.linspace(0.0, 60.0, points)
        threaded, _ = self.run_threaded(monkeypatch, truth_curves, truth, grid)
        serial, _ = self.run(monkeypatch, 1, truth_curves, truth, grid)
        for field in fields(CurveTable):
            assert getattr(threaded, field.name).tobytes() == \
                getattr(serial, field.name).tobytes(), field.name
        assert threaded.hazard_ratio.tobytes() == serial.hazard_ratio.tobytes()
        assert truth_threads() == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fail_at", [0, 5], ids=["first", "later"])
    def test_error_propagates_and_threads_end(self, monkeypatch, cpus, fail_at):
        grid = np.linspace(0.0, 60.0, 7 * _BLOCK + 1)
        error = ValueError(f"block {fail_at} failed")
        with pytest.raises(ValueError) as raised:
            self.run(monkeypatch, cpus, _mixture, geometric_arm(3), grid,
                     error=error, fail_from=grid[fail_at * _BLOCK])
        assert raised.value is error
        assert truth_threads() == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_callers_errstate_holds_in_the_threads(self, monkeypatch, cpus):
        # a new thread starts with numpy's default errstate, where an
        # overflow only warns
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        evaluated_in = []

        def overflowing_sum(terms):
            evaluated_in.append(threading.current_thread().name)
            return np.exp(np.full(terms.shape[1], 1e3))

        monkeypatch.setattr(survmix.frailty, "_strata_sum", overflowing_sum)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                _mixture(geometric_arm(3), np.linspace(0.0, 60.0, 4 * _BLOCK))
        caller = threading.current_thread().name
        assert evaluated_in and all(name.startswith("survmix-truth") if cpus == 2
                                    else name == caller for name in evaluated_in)
        assert truth_threads() == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_callers_numpy_state_is_unchanged(self, monkeypatch, cpus, fail):
        # the blocks run with numpy's buffer at _BLOCK; neither it nor an
        # errstate may leak out to the caller, whichever thread ran them
        grid = np.linspace(0.0, 60.0, 4 * _BLOCK)
        error = ValueError("block failed")
        with np.errstate(over="raise", divide="ignore"):
            np.setbufsize(4 * _BLOCK)
            before = np.getbufsize(), np.geterr()
            try:
                self.run(monkeypatch, cpus, _mixture, geometric_arm(3), grid,
                         error=error, fail_from=grid[_BLOCK] if fail else None)
            except ValueError as raised:
                assert fail and raised is error
            else:
                assert not fail
            assert (np.getbufsize(), np.geterr()) == before
        assert truth_threads() == 0

    def test_blocks_are_taken_from_one_queue(self, monkeypatch):
        # the first truth thread sleeps at each block it takes, so the other
        # takes more of them from the queue; the bytes do not change
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)),
                            raising=False)
        arm = geometric_arm(3)
        grid = np.linspace(0.0, 60.0, 7 * _BLOCK + 1)
        taken = []

        def slowed_composition(log_weights, t, out):
            name = threading.current_thread().name
            taken.append((name, t[0]))
            if name == "survmix-truth_0":
                time.sleep(0.05)
            return _composition(log_weights, t, out)

        monkeypatch.setattr(survmix.frailty, "_composition", slowed_composition)
        threaded = _mixture(arm, grid)
        assert truth_threads() == 0
        assert sorted(start for _, start in taken) == list(grid[::_BLOCK])
        names = [name for name, _ in taken]
        assert set(names) <= {"survmix-truth_0", "survmix-truth_1"}
        assert names.count("survmix-truth_0") < names.count("survmix-truth_1")
        serial, _ = self.run(monkeypatch, 1, _mixture, arm, grid)
        assert threaded.tobytes() == serial.tobytes()


def test_default_grid_shape():
    grid = default_grid()
    assert grid.size == 601
    assert grid[0] == 0.0 and grid[-1] == 30.0
    assert np.allclose(np.diff(grid), 0.05)


@pytest.mark.parametrize("t", [np.nan, np.inf, [1.0, np.inf]], ids=["nan", "inf", "array-inf"])
@pytest.mark.parametrize("curve", [marginal_survival, cumulative_hazard, marginal_hazard,
                                   marginal_density, survivor_composition])
def test_non_finite_time_rejected(two_point_truth, curve, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error
        with pytest.raises(ValueError, match="^time must be finite and >= 0, got "):
            curve(two_point_truth.control, t)
