from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmix.config import (ConfigError, RunConfig, default_config,
                            default_config_text, parse_config)
from survmix.frailty import MixtureArm, TwoArmTruth
from survmix.trial import CENSORING_KINDS, COUPLINGS, CensoringSpec, TrialConfig

MINIMAL = """
[truth.control]
weights = 0.5, 0.5
rates = 0.1, 0.5

[truth.research]
weights = 0.5, 0.5
rates = 0.05, 0.25
"""


def test_default_config_encodes_demo_scenario():
    cfg = default_config()
    assert cfg.truth.control.weights == (0.5, 0.5)
    assert cfg.truth.control.rates == (0.1, 0.5)
    assert cfg.truth.research.rates == (0.05, 0.25)
    assert cfg.trial.n_per_arm == 500
    assert cfg.trial.coupling == "comonotone"
    assert cfg.trial.censoring.kind == "none"
    assert (cfg.grid_min, cfg.grid_max, cfg.grid_points) == (0.0, 30.0, 601)
    assert cfg.landmark == 1.0 and cfg.rmst_horizon == 10.0
    assert cfg.sensitivity_replicates == 200


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.trial.n_per_arm == 500
    assert cfg.out_dir == "out"
    assert cfg.cutpoints == ()
    assert cfg.covariates == ("arm",)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'n_arms'"):
        parse_config(MINIMAL + "\n[trial]\nn_arms = 2\n")


def test_missing_truth_section_rejected():
    with pytest.raises(ConfigError, match=r"\[truth.research\]"):
        parse_config("[truth.control]\nweights = 1.0\nrates = 0.1\n")


def test_missing_rates_rejected():
    with pytest.raises(ConfigError, match="truth.control.rates"):
        parse_config("[truth.control]\nweights = 1.0\n"
                     "[truth.research]\nweights = 1.0\nrates = 0.05\n")


def test_bad_number_diagnostic_names_field():
    with pytest.raises(ConfigError, match="truth.control.rates"):
        parse_config(MINIMAL.replace("0.1, 0.5", "0.1, fast"))


def test_invalid_weights_reported_with_section():
    with pytest.raises(ConfigError, match=r"\[truth.control\].*sum to 1"):
        parse_config(MINIMAL.replace("0.5, 0.5\nrates = 0.1, 0.5", "0.5, 0.4\nrates = 0.1, 0.5"))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[trial]\nseed = 1\nseed = 2\n")


def test_censoring_section_builds_spec():
    cfg = parse_config(MINIMAL + "\n[censoring]\nkind = both\nadmin_time = 2.0\nrate = 0.1\n")
    assert cfg.trial.censoring.kind == "both"
    assert cfg.trial.censoring.admin_time == 2.0
    assert cfg.trial.censoring.rate == 0.1


def test_inconsistent_censoring_rejected():
    with pytest.raises(ConfigError, match=r"\[censoring\]"):
        parse_config(MINIMAL + "\n[censoring]\nkind = administrative\n")


@pytest.mark.parametrize("lines, named", [
    ("kind = uniform", r"one of \('none', 'administrative', 'exponential', 'both'\)"),
    ("kind = administrative", "'administrative'.* 'none'"),
    ("kind = none\nadmin_time = 2", "'none'.* 'administrative'"),
    ("kind = administrative\nadmin_time = 2\nrate = 0.1", "'administrative'.* 'both'"),
])
def test_censoring_kind_must_agree_with_parameters(lines, named):
    # the kind a file names, checked against the one its parameters make
    with pytest.raises(ConfigError, match=rf"\[censoring\] .*{named}"):
        parse_config(MINIMAL + f"\n[censoring]\n{lines}\n")


def test_bad_coupling_rejected():
    with pytest.raises(ConfigError, match="coupling"):
        parse_config(MINIMAL + "\n[trial]\ncoupling = sideways\n")


def test_bad_grid_rejected():
    with pytest.raises(ConfigError, match=r"\[grid\]"):
        parse_config(MINIMAL + "\n[grid]\nmin = 5\nmax = 1\n")


def test_bad_cutpoints_rejected():
    with pytest.raises(ConfigError, match="cutpoints"):
        parse_config(MINIMAL + "\n[fit]\ncutpoints = 4, 2\n")


def test_cutpoints_that_are_not_numbers_rejected():
    # the list parser's own message, not _get's "invalid value"
    with pytest.raises(ConfigError, match=r"^<config>: fit.cutpoints: expected a list of "
                                          r"numbers, got '1, x'$"):
        parse_config(MINIMAL + "\n[fit]\ncutpoints = 1, x\n")


def test_truth_is_the_trials():
    cfg = default_config()
    assert "truth" not in {field.name for field in fields(RunConfig)}
    assert cfg.truth is cfg.trial.truth
    swapped = TwoArmTruth(cfg.truth.research, cfg.truth.control)
    assert replace(cfg, trial=replace(cfg.trial, truth=swapped)).truth is swapped


def test_bad_covariates_rejected():
    with pytest.raises(ConfigError, match="covariates"):
        parse_config(MINIMAL + "\n[fit]\ncovariates = arm, age\n")


@pytest.mark.parametrize("value, cause", [("arm, arm", "covariate 'arm' is repeated"),
                                          ("", "no covariates given"),
                                          ("stratum", "covariates stratum lack 'arm'")])
def test_repeated_or_empty_covariates_rejected(value, cause):
    with pytest.raises(ConfigError, match=f"fit.covariates: {cause}"):
        parse_config(MINIMAL + f"\n[fit]\ncovariates = {value}\n")


@pytest.mark.parametrize("section, lines, named", [
    ("fit", "cutpoints = 1, nan", "fit.cutpoints"),
    ("fit", "cutpoints = 1e400", "fit.cutpoints"),
    ("censoring", "kind = exponential\nrate = inf", r"\[censoring\]"),
    ("censoring", "kind = administrative\nadmin_time = inf", r"\[censoring\]"),
    ("estimands", "rmst_horizon = inf", "estimands.rmst_horizon"),
    ("estimands", "landmark = nan", "estimands.landmark"),
    ("estimands", "ratio_time = inf", "estimands.ratio_time"),
    ("grid", "max = nan", r"\[grid\]"),
    ("grid", "max = inf", r"\[grid\]"),
    ("grid", "min = nan", r"\[grid\]"),
])
def test_non_finite_values_rejected(section, lines, named):
    with pytest.raises(ConfigError, match=f"{named}.* finite"):
        parse_config(MINIMAL + f"\n[{section}]\n{lines}\n")


@pytest.mark.parametrize("old, new", [("rates = 0.1, 0.5", "rates = nan, 0.5"),
                                      ("rates = 0.1, 0.5", "rates = inf, 0.5"),
                                      ("weights = 0.5, 0.5", "weights = nan, 0.5")])
def test_non_finite_mixture_rejected(old, new):
    key = old.partition(" ")[0]
    with pytest.raises(ConfigError, match=rf"\[truth.control\] all {key} must be finite"):
        parse_config(MINIMAL.replace(old, new, 1))


def test_parse_error_carries_origin():
    with pytest.raises(ConfigError, match="myrun.cfg"):
        parse_config("not an ini file", origin="myrun.cfg")


def test_default_text_round_trips():
    assert parse_config(default_config_text()) == default_config()


def _fill_template(text, values):
    """The config text with its `key = value` lines replaced by `values`, a
    (section, key) -> text mapping written under each section header."""
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
            lines.append(line)
            lines.extend(f"{k} = {v}" for (s, k), v in values.items() if s == section)
        elif "=" in line:
            assert (section, line.split("=")[0].strip()) in values
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


positive = st.floats(1e-3, 1e3, allow_subnormal=False)


@st.composite
def run_configs(draw):
    """A RunConfig drawn field by field, with the (section, key) -> text
    values that should encode it."""
    k = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = tuple(w / sum(raw) for w in raw)
    arms = [MixtureArm(weights, draw(st.lists(positive, min_size=k, max_size=k)))
            for _ in range(2)]
    truth = TwoArmTruth(*arms)
    kind = draw(st.sampled_from(CENSORING_KINDS))
    admin_time = draw(positive) if kind in ("administrative", "both") else None
    rate = draw(positive) if kind in ("exponential", "both") else None
    trial = TrialConfig(truth=truth, n_per_arm=draw(st.integers(1, 10**6)),
                        coupling=draw(st.sampled_from(COUPLINGS)),
                        censoring=CensoringSpec(admin_time, rate),
                        seed=draw(st.integers(0, 2**64 - 1)))
    grid_min = draw(st.floats(0.0, 100.0))
    grid_max = grid_min + draw(st.floats(1.0, 100.0))
    cutpoints = tuple(sorted(set(draw(st.lists(positive, max_size=4)))))
    config = RunConfig(
        trial=trial, grid_min=grid_min, grid_max=grid_max,
        grid_points=draw(st.integers(1, 2000)),
        covariates=draw(st.sampled_from([("arm",), ("arm", "stratum"), ("stratum", "arm")])),
        cutpoints=cutpoints, landmark=draw(positive), rmst_horizon=draw(positive),
        ratio_time=draw(positive), sensitivity_replicates=draw(st.integers(2, 10**4)),
        out_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)))

    def numbers(xs):
        return ", ".join(map(repr, xs))

    values = {
        ("truth.control", "weights"): numbers(weights),
        ("truth.control", "rates"): numbers(truth.control.rates),
        ("truth.research", "weights"): numbers(weights),
        ("truth.research", "rates"): numbers(truth.research.rates),
        ("trial", "n_per_arm"): trial.n_per_arm,
        ("trial", "coupling"): trial.coupling,
        ("trial", "seed"): trial.seed,
        ("censoring", "kind"): kind,
        ("grid", "min"): repr(grid_min),
        ("grid", "max"): repr(grid_max),
        ("grid", "points"): config.grid_points,
        ("fit", "covariates"): ", ".join(config.covariates),
        ("estimands", "landmark"): repr(config.landmark),
        ("estimands", "rmst_horizon"): repr(config.rmst_horizon),
        ("estimands", "ratio_time"): repr(config.ratio_time),
        ("estimands", "sensitivity_replicates"): config.sensitivity_replicates,
        ("output", "dir"): config.out_dir,
    }
    if admin_time is not None:
        values[("censoring", "admin_time")] = repr(admin_time)
    if rate is not None:
        values[("censoring", "rate")] = repr(rate)
    if cutpoints:
        values[("fit", "cutpoints")] = numbers(cutpoints)
    return config, values


@given(case=run_configs())
@settings(max_examples=100, deadline=None)
def test_default_template_round_trips_any_config(case):
    config, values = case
    assert parse_config(_fill_template(default_config_text(), values)) == config
