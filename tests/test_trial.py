import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from survmix import (CensoringSpec, Dataset, MixtureArm, TrialConfig, TwoArmTruth,
                     apply_censoring, kaplan_meier, marginal_density,
                     marginal_survival, simulate)
from survmix.trial import CENSORING_KINDS, COUPLINGS, _censor

# one spec of every censoring kind
EVERY_KIND = (CensoringSpec(), CensoringSpec(admin_time=2.0),
              CensoringSpec(rate=0.1),
              CensoringSpec(admin_time=2.0, rate=0.1))

# closed forms of the joint law of (T0, T1) given the shared stratum's rates:
# P(T1 > T0), and P(T0 > s, T1 > t)
CROSS_WORLD = {
    "independent": (lambda r0, r1: r0 / (r0 + r1),
                    lambda r0, r1, s, t: np.exp(-r0 * s - r1 * t)),
    "comonotone": (lambda r0, r1: (r1 < r0).astype(float),
                   lambda r0, r1, s, t: np.exp(-np.maximum(r0 * s, r1 * t))),
}


def config_for(truth, **kwargs):
    kwargs.setdefault("n_per_arm", 500)
    kwargs.setdefault("seed", 20260808)
    return TrialConfig(truth=truth, **kwargs)


class TestCensoringSpecValidation:
    def test_kinds(self):
        # a kind that disagrees with the parameters can only be written in a
        # config file; tests/test_config.py rejects it there
        assert [spec.kind for spec in EVERY_KIND] == list(CENSORING_KINDS) == [
            "none", "administrative", "exponential", "both"]

    def test_required_parameters(self):
        with pytest.raises(ValueError, match="admin_time"):
            CensoringSpec(admin_time=0.0)
        with pytest.raises(ValueError, match="rate"):
            CensoringSpec(rate=-1.0)
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite admin_time"):
                CensoringSpec(admin_time=value, rate=0.1)
            with pytest.raises(ValueError, match="finite rate"):
                CensoringSpec(admin_time=2.0, rate=value)

    def test_extraneous_parameters_rejected(self):
        # the kind is derived, so a kind passed in the old call forms raises
        # instead of building a spec
        with pytest.raises(TypeError):
            CensoringSpec("none")
        with pytest.raises(TypeError):
            CensoringSpec("administrative", admin_time=2.0)
        with pytest.raises(TypeError):
            CensoringSpec(kind="both", admin_time=2.0, rate=0.1)

    def test_labels(self):
        assert CensoringSpec().label() == "none"
        assert CensoringSpec(admin_time=2.0).label() == "admin@2"
        assert CensoringSpec(admin_time=2.0, rate=0.1).label() == "admin@2+exp@0.1"


def four_row_columns():
    """The columns of a valid four-row Dataset."""
    return {"ids": np.arange(4), "arm": [0, 0, 1, 1], "stratum": [0, 1, 0, 1],
            "potential_time_0": [1.0, 2.0, 3.0, 4.0], "potential_time_1": [2.0, 3.0, 4.0, 5.0],
            "observed_time": [1.0, 2.0, 4.0, 5.0], "event": [1, 1, 1, 1]}


class TestTrialConfigValidation:
    def test_positive_n(self, two_point_truth):
        with pytest.raises(ValueError, match="n_per_arm"):
            TrialConfig(truth=two_point_truth, n_per_arm=0)

    def test_coupling_choices(self, two_point_truth):
        with pytest.raises(ValueError, match="coupling"):
            TrialConfig(truth=two_point_truth, coupling="antitone")

    def test_seed_range(self, two_point_truth):
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(truth=two_point_truth, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(truth=two_point_truth, seed=2**64)

    @pytest.mark.parametrize("field, value, message", [
        ("n_per_arm", 2.5, "n_per_arm must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be a 64-bit unsigned integer, got 1.5"),
        ("seed", 1.0, "seed must be a 64-bit unsigned integer, got 1.0"),
    ])
    def test_integer_field_rejects_a_float(self, two_point_truth, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrialConfig(truth=two_point_truth, **{field: value})

    def test_n_per_arm_rejects_a_bool(self, two_point_truth):
        # True passed as 1: a one-per-arm trial
        with pytest.raises(ValueError, match="^n_per_arm must be an integer, got True$"):
            TrialConfig(truth=two_point_truth, n_per_arm=True)

    def test_arms_must_share_stratum_weights(self):
        truth = TwoArmTruth(
            control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.5)),
            research=MixtureArm(weights=(0.3, 0.7), rates=(0.05, 0.25)),
        )
        with pytest.raises(ValueError, match="stratum weights"):
            TrialConfig(truth=truth)


class TestSimulateStructure:
    def test_balanced_arms_and_contiguous_ids(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=250))
        assert len(ds) == 500
        assert np.array_equal(np.sort(ds.ids), np.arange(500))
        assert (ds.arm == 0).sum() == 250 and (ds.arm == 1).sum() == 250

    def test_potential_times_positive(self, two_point_truth):
        ds = simulate(config_for(two_point_truth))
        assert (ds.potential_time_0 > 0).all()
        assert (ds.potential_time_1 > 0).all()

    def test_observed_matches_assigned_when_uncensored(self, two_point_truth):
        ds = simulate(config_for(two_point_truth))
        assigned = np.where(ds.arm == 0, ds.potential_time_0, ds.potential_time_1)
        assert np.array_equal(ds.observed_time, assigned)
        assert ds.event.all()

    def test_columns_immutable(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=5))
        with pytest.raises(ValueError):
            ds.observed_time[0] = 1.0

    @pytest.mark.parametrize("column, value, message", [
        ("arm", 2, "row 3: arm must be 0 or 1, got 2"),
        ("arm", 0.5, "row 3: arm must be 0 or 1, got 0.5"),
        ("event", 2, "row 3: event must be 0 or 1, got 2"),
        ("stratum", -1, "row 3: stratum must be >= 0, got -1"),
        ("potential_time_1", np.inf, "row 3: potential_time_1 must be finite and > 0, got inf"),
        ("observed_time", 0.0, "row 3: observed_time must be finite and > 0, got 0"),
    ])
    def test_dataset_rejects_a_value_against_its_rule(self, column, value, message):
        columns = four_row_columns()
        Dataset(**columns, config=None)
        columns[column] = np.array(columns[column], dtype=type(value))
        columns[column][3] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(**columns, config=None)

    @pytest.mark.parametrize("column, values, message", [
        ("arm", [[0, 0], [1, 1]], "column arm has shape (2, 2), expected (4,)"),
        ("event", [1, 1, 1], "column event has shape (3,), expected (4,)"),
        ("ids", [[0, 1], [2, 3]], "column id has shape (2, 2), expected (4,)"),
    ])
    def test_dataset_rejects_a_column_of_another_shape(self, column, values, message):
        columns = four_row_columns()
        columns[column] = values
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(**columns, config=None)


class TestDeterminism:
    def test_same_seed_identical(self, two_point_truth):
        cfg = config_for(two_point_truth)
        assert simulate(cfg) == simulate(cfg)

    def test_not_equal_to_another_type(self):
        dataset = Dataset(**four_row_columns(), config=None)
        assert dataset == Dataset(**four_row_columns(), config=None)
        for other in (None, 4, four_row_columns()):
            assert dataset != other and not dataset == other

    def test_different_seed_differs(self, two_point_truth):
        a = simulate(config_for(two_point_truth, seed=1))
        b = simulate(config_for(two_point_truth, seed=2))
        assert not np.array_equal(a.observed_time, b.observed_time)

    def test_subset_independence(self, two_point_truth):
        # per-individual substreams: the first individuals of a larger trial
        # are drawn identically, regardless of the total size
        small = simulate(config_for(two_point_truth, n_per_arm=100))
        large = simulate(config_for(two_point_truth, n_per_arm=400))
        assert np.array_equal(small.potential_time_0[:100],
                              large.potential_time_0[:100])
        assert np.array_equal(small.stratum[:100], large.stratum[:100])


class TestCoupling:
    def test_comonotone_exact_ratio(self, two_point_truth):
        # both stratum rate ratios are exactly 0.5, and halving a rate is an
        # exact float operation, so the shared-uniform inversion gives 2.0
        ds = simulate(config_for(two_point_truth, coupling="comonotone"))
        assert np.all(ds.potential_time_1 / ds.potential_time_0 == 2.0)

    def test_comonotone_preserves_ranks_within_stratum(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=2000))
        for k in (0, 1):
            mask = ds.stratum == k
            order0 = np.argsort(ds.potential_time_0[mask])
            order1 = np.argsort(ds.potential_time_1[mask])
            assert np.array_equal(order0, order1)

    def test_independent_coupling_breaks_pairing(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, coupling="independent",
                                 n_per_arm=2000))
        ratio = ds.potential_time_1 / ds.potential_time_0
        assert np.unique(ratio).size > 1000

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_joint_law_matches_closed_form(self, two_point_truth, coupling):
        # the revealed potential times of all 2n individuals against the
        # mixture over the shared stratum, within 4 binomial standard errors
        ds = simulate(config_for(two_point_truth, coupling=coupling,
                                 n_per_arm=20_000, seed=11))
        w = np.asarray(two_point_truth.control.weights)
        r0 = np.asarray(two_point_truth.control.rates)
        r1 = np.asarray(two_point_truth.research.rates)
        concordance, joint_survival = CROSS_WORLD[coupling]
        t0, t1 = ds.potential_time_0, ds.potential_time_1
        checks = [(t1 > t0, w @ concordance(r0, r1))]
        checks += [((t0 > s) & (t1 > t), w @ joint_survival(r0, r1, s, t))
                   for s, t in ((1.0, 1.0), (2.0, 5.0), (5.0, 2.0))]
        for hits, p in checks:
            assert abs(hits.mean() - p) <= 4 * np.sqrt(p * (1 - p) / hits.size)

    def test_couplings_share_marginals(self, two_point_truth):
        # identical stratum and primary-uniform streams mean T(0) agrees
        como = simulate(config_for(two_point_truth, coupling="comonotone"))
        indep = simulate(config_for(two_point_truth, coupling="independent"))
        assert np.array_equal(como.potential_time_0, indep.potential_time_0)


class TestMarginalAgreement:
    def test_empirical_survival_matches_truth(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=100_000, seed=7))
        control = ds.arm == 0
        empirical = (ds.observed_time[control] > 1.0).mean()
        truth_value = marginal_survival(two_point_truth.control, 1.0)
        assert abs(empirical - truth_value) < 0.005  # binomial se ~ 0.0014

    def test_stratum_frequencies(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=50_000, seed=3))
        freq = (ds.stratum == 1).mean()
        bound = 4 * np.sqrt(0.25 / len(ds))
        assert abs(freq - 0.5) < bound

    def test_kaplan_meier_converges_to_truth(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=20_000, seed=11))
        for z, arm in ((0, two_point_truth.control), (1, two_point_truth.research)):
            mask = ds.arm == z
            km = kaplan_meier(ds.observed_time[mask], ds.event[mask])
            truth_vals = marginal_survival(arm, km.times)
            jump_side = np.concatenate([[1.0], km.values[:-1]])
            sup = max(np.abs(km.values - truth_vals).max(),
                      np.abs(jump_side - truth_vals).max())
            assert sup < 2 * 1.36 / np.sqrt(mask.sum())


class TestCensoring:
    def test_none_keeps_all_events(self, two_point_truth):
        ds = simulate(config_for(two_point_truth,
                                 censoring=CensoringSpec()))
        assert ds.event.all()

    def test_administrative_truncates(self, two_point_truth):
        spec = CensoringSpec(admin_time=2.0)
        ds = simulate(config_for(two_point_truth, censoring=spec))
        assigned = np.where(ds.arm == 0, ds.potential_time_0, ds.potential_time_1)
        late = assigned > 2.0
        assert np.all(ds.observed_time[late] == 2.0)
        assert not ds.event[late].any()
        assert np.array_equal(ds.observed_time[~late], assigned[~late])
        assert ds.event[~late].all()

    def test_administrative_minimum_rule_single_record(self, two_point_truth):
        ds = simulate(config_for(two_point_truth, n_per_arm=200))
        spec = CensoringSpec(admin_time=2.0)
        censored = apply_censoring(ds, spec, seed=0)
        idx = int(np.argmax(ds.observed_time > 3.1))
        assert ds.observed_time[idx] > 3.1
        assert censored.observed_time[idx] == 2.0
        assert not censored.event[idx]

    def test_exponential_event_fraction(self, two_point_truth):
        # P(event) = integral of f(t) * exp(-c t); trapezoid oracle
        spec = CensoringSpec(rate=0.1)
        ds = simulate(config_for(two_point_truth, n_per_arm=100_000, seed=5,
                                 censoring=spec))
        control = ds.arm == 0
        t = np.linspace(0.0, 400.0, 400_001)
        f = marginal_density(two_point_truth.control, t)
        expected = np.trapezoid(f * np.exp(-0.1 * t), t)
        assert abs(ds.event[control].mean() - expected) < 0.01

    def test_both_takes_minimum_of_all_three(self, two_point_truth):
        base = simulate(config_for(two_point_truth, n_per_arm=5000))
        admin = apply_censoring(base, CensoringSpec(admin_time=2.0), seed=9)
        expo = apply_censoring(base, CensoringSpec(rate=0.1), seed=9)
        both = apply_censoring(base, CensoringSpec(admin_time=2.0, rate=0.1), seed=9)
        assert np.array_equal(both.observed_time,
                              np.minimum(admin.observed_time, expo.observed_time))
        assert np.array_equal(both.event, admin.event & expo.event)

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("spec", EVERY_KIND, ids=CensoringSpec.label)
    def test_apply_censoring_matches_simulate(self, two_point_truth, coupling, spec):
        # censoring an uncensored trial afterwards, with its own seed, is the
        # trial simulated under that censoring
        config = config_for(two_point_truth, coupling=coupling, n_per_arm=300)
        censored = apply_censoring(simulate(config), spec, config.seed)
        expected = simulate(replace(config, censoring=spec))
        assert censored.config == expected.config
        for name in vars(expected).keys() - {"config"}:
            assert np.array_equal(getattr(censored, name), getattr(expected, name))

    def test_censoring_time_past_the_largest_float(self, two_point_truth):
        # a rate of 5e-324 puts the censoring times past every event time,
        # most of them at inf, without a warning; between the specs the
        # caller of the censoring generator keeps its own warning state
        base = simulate(config_for(two_point_truth, n_per_arm=50))
        specs = [CensoringSpec(rate=5e-324), CensoringSpec()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            censored = _censor(7, base.ids, base.arm, base.potential_time_0,
                               base.potential_time_1, specs)
            tiny = next(censored)
            assert np.geterr()["over"] == "warn"
            none = next(censored)
        assert tiny[1].all()
        assert np.array_equal(tiny[0], none[0]) and np.array_equal(tiny[1], none[1])

    def test_censoring_deterministic_per_seed(self, two_point_truth):
        base = simulate(config_for(two_point_truth))
        spec = CensoringSpec(rate=0.2)
        first = apply_censoring(base, spec, seed=4)
        second = apply_censoring(base, spec, seed=4)
        third = apply_censoring(base, spec, seed=5)
        assert np.array_equal(first.observed_time, second.observed_time)
        assert not np.array_equal(first.observed_time, third.observed_time)
