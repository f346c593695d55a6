"""Closed-form survival, hazard and hazard-ratio curves for exponential mixtures.

A population is a K-point mixture: stratum k (prevalence ``weights[k]``) has a
constant event rate ``rates[k]``. Mixing over strata gives the marginal law

    S(t) = sum_k w_k exp(-rate_k t)
    h(t) = sum_k rate_k w_k exp(-rate_k t) / S(t) = -d/dt log S(t)

Even though every stratum has a constant hazard, the marginal hazard falls
over time as high-rate strata are depleted from the survivors, and the
marginal hazard ratio between two such populations drifts even when the
stratum-wise ratios are a common constant.

All evaluations of h, H and the survivor composition run in the log domain so
that they stay exact out to times where exp(-rate*t) underflows.
"""

from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-12

ARM_CONTROL = "control"
ARM_RESEARCH = "research"


@dataclass(frozen=True)
class MixtureArm:
    """True event-time law of one arm: stratum weights and exponential rates."""

    weights: tuple
    rates: tuple

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rates", rates)
        if len(weights) < 1 or len(weights) != len(rates):
            raise ValueError("weights and rates must be equal-length, K >= 1")
        if any(w <= 0.0 for w in weights):
            raise ValueError(f"all weights must be > 0, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got sum {sum(weights)!r}")
        if any(r <= 0.0 for r in rates):
            raise ValueError(f"all rates must be > 0, got {rates}")

    @property
    def n_strata(self):
        return len(self.weights)


@dataclass(frozen=True)
class TwoArmTruth:
    """Paired control/research mixture laws for a two-arm comparison."""

    control: MixtureArm
    research: MixtureArm


def check_grid(grid):
    """A time grid as a float array: non-empty, 1-d, >= 0, strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d time sequence")
    if np.any(grid < 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing and >= 0")
    return grid


def _as_times(t):
    """Validate times >= 0; returns (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(f"time must be >= 0, got {t!r}")
    return arr, arr.ndim == 0


def _log_terms(arm, t):
    """log(w_k) - rate_k * t, shape (K,) + t.shape."""
    logw = np.log(arm.weights)
    rates = np.asarray(arm.rates)
    return logw.reshape((-1,) + (1,) * t.ndim) - np.multiply.outer(rates, t)


def _logsumexp(a, axis=0):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def marginal_survival(arm, t):
    """S(t) = sum_k w_k exp(-rate_k t), the survival marginal to stratum."""
    t, scalar = _as_times(t)
    s = np.einsum("k,k...->...", np.asarray(arm.weights),
                  np.exp(np.multiply.outer(-np.asarray(arm.rates), t)))
    return float(s) if scalar else s


def cumulative_hazard(arm, t):
    """H(t) = -log S(t), evaluated in the log domain."""
    t, scalar = _as_times(t)
    value = -_logsumexp(_log_terms(arm, t))
    return float(value) if scalar else value


def survivor_composition(arm, t):
    """Stratum distribution among survivors at t: w_k exp(-rate_k t) / S(t).

    At t=0 this is the prior weights; as t grows it concentrates on the
    minimum-rate stratum. Entries sum to 1 at any t.
    """
    t, _ = _as_times(t)
    terms = _log_terms(arm, t)
    comp = np.exp(terms - _logsumexp(terms))
    comp /= comp.sum(axis=0)
    return comp


def marginal_hazard(arm, t):
    """h(t) = sum_k rate_k w_k exp(-rate_k t) / S(t).

    Equals the composition-weighted mean of the stratum rates, so it starts
    at sum_k w_k rate_k and decreases toward min(rates).
    """
    t, scalar = _as_times(t)
    comp = survivor_composition(arm, t)
    h = np.einsum("k,k...->...", np.asarray(arm.rates), comp)
    return float(h) if scalar else h


def marginal_density(arm, t):
    """f(t) = sum_k w_k rate_k exp(-rate_k t); equals h(t) * S(t)."""
    t, scalar = _as_times(t)
    wr = np.asarray(arm.weights) * np.asarray(arm.rates)
    f = np.einsum("k,k...->...", wr, np.exp(np.multiply.outer(-np.asarray(arm.rates), t)))
    return float(f) if scalar else f


def hazard_ratio(truth, t):
    """Marginal hazard ratio research / control at time t."""
    t, scalar = _as_times(t)
    hr = marginal_hazard(truth.research, t) / marginal_hazard(truth.control, t)
    return float(hr) if scalar else hr


def limit_hazard_ratio(truth):
    """t -> infinity limit of the marginal hazard ratio.

    Survivors in each arm are eventually dominated by the minimum-rate
    stratum, so the limit is min(research rates) / min(control rates).
    Requires a unique minimum rate in each arm: with ties the limit exists
    but depends on the tied weights, which this toolkit does not support.
    """
    mins = []
    for label, arm in ((ARM_CONTROL, truth.control), (ARM_RESEARCH, truth.research)):
        rates = sorted(arm.rates)
        if len(rates) > 1 and rates[0] == rates[1]:
            raise ValueError(
                f"{label} arm has a tied minimum rate {rates[0]}; "
                "the limiting hazard ratio requires a unique minimum rate per arm"
            )
        mins.append(rates[0])
    return mins[1] / mins[0]


@dataclass(frozen=True)
class CurveTable:
    """Gridded truth curves for both arms plus the pointwise hazard ratio."""

    grid: np.ndarray
    survival_control: np.ndarray
    survival_research: np.ndarray
    hazard_control: np.ndarray
    hazard_research: np.ndarray
    cum_hazard_control: np.ndarray
    cum_hazard_research: np.ndarray
    hazard_ratio: np.ndarray

    def __post_init__(self):
        grid = check_grid(self.grid)
        for name in ("survival", "hazard", "cum_hazard"):
            for armlabel in (ARM_CONTROL, ARM_RESEARCH):
                col = getattr(self, f"{name}_{armlabel}")
                if col.shape != grid.shape:
                    raise ValueError(f"{name}_{armlabel} does not match the grid")
        for armlabel in (ARM_CONTROL, ARM_RESEARCH):
            surv = getattr(self, f"survival_{armlabel}")
            cumh = getattr(self, f"cum_hazard_{armlabel}")
            haz = getattr(self, f"hazard_{armlabel}")
            if np.any(surv <= 0.0) or np.any(surv > 1.0) or np.any(np.diff(surv) > 0.0):
                raise ValueError(f"survival_{armlabel} must be non-increasing in (0, 1]")
            if grid[0] == 0.0 and surv[0] != 1.0:
                raise ValueError(f"survival_{armlabel} must equal 1 at t=0")
            if np.any(haz <= 0.0):
                raise ValueError(f"hazard_{armlabel} must be positive")
            if np.max(np.abs(cumh + np.log(surv))) > 1e-10:
                raise ValueError(f"cum_hazard_{armlabel} != -log(survival)")

    def __len__(self):
        return self.grid.size


def truth_curves(truth, grid):
    """Tabulate survival, hazard, cumulative hazard and the HR on a time grid."""
    grid = check_grid(grid)
    hc = marginal_hazard(truth.control, grid)
    hr = marginal_hazard(truth.research, grid)
    return CurveTable(
        grid=grid,
        survival_control=marginal_survival(truth.control, grid),
        survival_research=marginal_survival(truth.research, grid),
        hazard_control=hc,
        hazard_research=hr,
        cum_hazard_control=cumulative_hazard(truth.control, grid),
        cum_hazard_research=cumulative_hazard(truth.research, grid),
        hazard_ratio=hr / hc,
    )


def default_grid(t_min=0.0, t_max=30.0, points=601):
    """Figure grid: 601 equally spaced points on [0, 30] unless overridden."""
    return check_grid(np.linspace(float(t_min), float(t_max), int(points)))
