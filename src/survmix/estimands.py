"""Alternative causal effect summaries beyond the fitted hazard ratio.

Landmark survival contrasts, restricted mean survival time, the
log-survival-probability ratio (equivalently the cumulative-hazard ratio),
and a Monte-Carlo experiment showing how the fitted average hazard ratio
moves with the censoring distribution. Every summary can be computed from the
closed-form truth or from Kaplan-Meier curves of a dataset.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _pool, rng
# cox_fit_dataset and simulate are not called here: they are the
# per-replicate reference of censoring_sensitivity, and perfbench/tracing.py
# wraps them under these names
from .estimators import (StepCurve, _arm, _check_integer, _check_time, _sample,
                         cox_fit_dataset, cox_log_hr_stack, kaplan_meier)
from .frailty import TwoArmTruth, cumulative_hazard, marginal_survival
from .trial import censored_replicates, simulate

SOURCE_TRUTH = "truth"
SOURCE_ESTIMATED = "estimated"

LANDMARK_KINDS = ("difference", "ratio", "risk_difference")


@dataclass(frozen=True)
class EstimandReport:
    name: str
    source: str
    horizon: float
    value: float
    per_arm: dict

    def __post_init__(self):
        _check_time("estimand horizon", self.horizon)
        if not math.isfinite(self.value):
            raise ValueError(f"estimand {self.name} at t={self.horizon:g} is not finite: "
                             f"{self.value}")


@dataclass(frozen=True)
class EstimatedCurves:
    """Kaplan-Meier curves per arm plus their supported follow-up ranges."""

    control: StepCurve
    research: StepCurve
    max_time_control: float
    max_time_research: float

    @classmethod
    def from_sample(cls, time, event, arm):
        time, event = _sample(time, event)
        arm = _arm(arm, time.shape)
        curves, max_times = [], []
        for z in (0, 1):
            mask = arm == z
            if not mask.any():
                raise ValueError(f"no observations in arm {z}")
            if not event[mask].any():
                raise ValueError(f"no events in arm {z}")
            curves.append(kaplan_meier(time[mask], event[mask]))
            max_times.append(float(time[mask].max()))
        return cls(curves[0], curves[1], max_times[0], max_times[1])

    @property
    def max_supported_time(self):
        return min(self.max_time_control, self.max_time_research)


def _source_label(source):
    return SOURCE_TRUTH if isinstance(source, TwoArmTruth) else SOURCE_ESTIMATED


def _survival_pair(source, t):
    """Survival in both arms at t, from truth or estimated curves."""
    if isinstance(source, TwoArmTruth):
        return marginal_survival(source.control, t), marginal_survival(source.research, t)
    if t > source.max_supported_time:
        raise ValueError(
            f"time {t:g} is beyond the estimated curves; the maximum supported "
            f"landmark is {source.max_supported_time:g}"
        )
    return float(source.control.at(t)), float(source.research.at(t))


def landmark_contrast(source, t_star, kind="difference"):
    """Contrast of the arm survival probabilities at the landmark t_star."""
    if kind not in LANDMARK_KINDS:
        raise ValueError(f"kind must be one of {LANDMARK_KINDS}, got {kind!r}")
    _check_time("landmark time", t_star)
    s0, s1 = _survival_pair(source, t_star)
    if kind == "difference":
        value = s1 - s0
    elif kind == "risk_difference":
        # (1-s1) - (1-s0) algebraically; written to negate `difference` exactly
        value = s0 - s1
    elif isinstance(source, TwoArmTruth):
        # the ratio as exp(H0 - H1) from the log domain, exact where S
        # underflows; past the largest float it is inf, which the report refuses
        try:
            value = math.exp(cumulative_hazard(source.control, t_star)
                             - cumulative_hazard(source.research, t_star))
        except OverflowError:
            value = math.inf
    elif s0 == 0.0:
        raise ValueError(f"landmark ratio undefined at t={t_star:g}: control survival is 0")
    else:
        value = s1 / s0
    return EstimandReport(name=f"landmark_{kind}", source=_source_label(source),
                          horizon=float(t_star), value=float(value),
                          per_arm={"control": s0, "research": s1})


def _rmst_truth(arm, tau):
    """Closed form: sum_k w_k (1 - exp(-rate_k tau)) / rate_k, with
    1 - exp(-x) as -expm1(-x), which keeps its digits where x is small."""
    w = np.asarray(arm.weights)
    lam = np.asarray(arm.rates)
    with np.errstate(over="ignore"):  # -inf past the largest float: expm1 is -1
        return float(np.sum(w * -np.expm1(-lam * tau) / lam))


def _rmst_step(curve, tau):
    """Exact area under a right-continuous step survival curve on [0, tau]."""
    cut = curve.times[curve.times < tau]
    edges = np.concatenate([[0.0], cut, [tau]])
    heights = curve.at(edges[:-1])
    return float(np.sum(np.diff(edges) * heights))


def rmst(source, arm, horizon):
    """Restricted mean survival time to `horizon` for one arm, or the
    research-minus-control difference when arm='difference'."""
    _check_time("rmst horizon", horizon)
    if arm not in ("control", "research", "difference"):
        raise ValueError(f"arm must be control, research or difference, got {arm!r}")
    per_arm = {}
    needed = ("control", "research") if arm == "difference" else (arm,)
    for label in needed:
        if isinstance(source, TwoArmTruth):
            per_arm[label] = _rmst_truth(getattr(source, label), horizon)
        else:
            max_time = getattr(source, f"max_time_{label}")
            if horizon > max_time:
                raise ValueError(
                    f"rmst horizon {horizon:g} exceeds the last observed time "
                    f"{max_time:g} in the {label} arm"
                )
            per_arm[label] = _rmst_step(getattr(source, label), horizon)
    if arm == "difference":
        value = per_arm["research"] - per_arm["control"]
        name = "rmst_difference"
    else:
        value = per_arm[arm]
        name = f"rmst_{arm}"
    return EstimandReport(name=name, source=_source_label(source),
                          horizon=float(horizon), value=value, per_arm=per_arm)


def log_survival_ratio(source, t):
    """log S_research(t) / log S_control(t), the cumulative-hazard ratio.

    Under proportional hazards this is constant in t and equals the hazard
    ratio itself, which is what makes it a population-level causal contrast.
    Undefined where either survival equals 1 (no events yet), and refused
    where either is below the smallest normal float: a subnormal S has lost
    the digits that log S needs, and 0 has none.
    """
    _check_time("time", t)
    s0, s1 = _survival_pair(source, t)
    for label, s in (("control", s0), ("research", s1)):
        if not np.finfo(float).tiny <= s < 1.0:
            raise ValueError(
                f"log-survival ratio undefined at t={t:g}: {label} survival is {s:g}"
            )
    value = math.log(s1) / math.log(s0)
    return EstimandReport(name="log_survival_ratio", source=_source_label(source),
                          horizon=float(t), value=value,
                          per_arm={"control": s0, "research": s1})


@dataclass(frozen=True)
class SensitivityRow:
    spec_label: str
    mean_beta: float
    mc_se: float
    n_ok: int
    n_failed: int


# replicates are simulated and fitted in blocks of about this many rows, which
# bounds the memory of a block whatever the replicate count
_BLOCK_ROWS = 2**15


def _replicate_log_hrs(config, specs, replicates):
    """Arm-only Cox log-HR of every (spec, replicate) as a (specs, replicates)
    array; nan where the fit fails or does not converge.

    The blocks are fitted on the pool of at most two threads, one per usable
    CPU. A block writes only its own columns, so the array is the same
    whichever thread fits it.
    """
    seeds = rng.derive_seed(config.seed, np.arange(replicates))
    block = max(1, _BLOCK_ROWS // (2 * config.n_per_arm))
    log_hrs = np.empty((len(specs), replicates))
    firsts = range(0, replicates, block)

    def fit_block(first):
        arm, censored = censored_replicates(config, seeds[first:first + block], specs)
        for k, (observed, event) in enumerate(censored):
            log_hrs[k, first:first + block] = cox_log_hr_stack(observed, event, arm)

    _pool.map(fit_block, firsts, "survmix-replicates")
    return log_hrs


def censoring_sensitivity(config, specs, replicates):
    """Monte-Carlo mean of the arm-only Cox log-HR under each censoring spec.

    Replicate r of every spec reruns the trial with the child seed
    derive_seed(config.seed, r), so specs are compared on identical
    potential-outcome draws and scheduling cannot affect results. Each
    replicate's potential outcomes are drawn once and re-censored under every
    spec, and a block of replicates is fitted in one stacked Newton solve;
    each log-HR equals cox_fit_dataset(simulate(...)) of its replicate to
    rounding. The blocks are fitted on at most two threads, one per usable
    CPU; the rows are byte-identical with one thread or two. Replicates
    whose fit fails or does not converge are excluded and counted.
    """
    _check_integer("replicates", replicates)
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    rows = []
    for spec, betas in zip(specs, _replicate_log_hrs(config, specs, replicates)):
        betas = betas[np.isfinite(betas)]
        n_ok = betas.size
        mean = float(betas.mean()) if n_ok else float("nan")
        mc_se = float(betas.std(ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else float("nan")
        rows.append(SensitivityRow(spec_label=spec.label(), mean_beta=mean,
                                   mc_se=mc_se, n_ok=n_ok, n_failed=replicates - n_ok))
    return rows
