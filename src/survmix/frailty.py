"""Closed-form survival, hazard and hazard-ratio curves for exponential mixtures.

A population is a K-point mixture: stratum k (prevalence ``weights[k]``) has a
constant event rate ``rates[k]``. Mixing over strata gives the marginal law

    S(t) = sum_k w_k exp(-rate_k t)
    h(t) = sum_k rate_k w_k exp(-rate_k t) / S(t) = -d/dt log S(t)

Even though every stratum has a constant hazard, the marginal hazard falls
over time as high-rate strata are depleted from the survivors, and the
marginal hazard ratio between two such populations drifts even when the
stratum-wise ratios are a common constant.

H, h and the survivor composition come from one log-domain evaluation, so
they stay exact out to times where exp(-rate*t) underflows. S is the direct
sum, exact because its terms are positive; it reaches 0.0 while H stays finite.
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


def _log_mixture(arm, t):
    """(H, composition, h) at t from the K x t.shape terms log w_k - rate_k t,
    shifted by their maximum, exponentiated and normalised in place."""
    comp = np.multiply.outer(-np.asarray(arm.rates), t)
    comp += np.log(arm.weights).reshape((-1,) + (1,) * t.ndim)
    top = comp.max(axis=0)
    comp -= top
    np.exp(comp, out=comp)
    total = comp.sum(axis=0)
    comp /= total
    h = np.einsum("k,k...->...", np.asarray(arm.rates), comp)
    return -(top + np.log(total)), comp, h


def marginal_survival(arm, t):
    """S(t) = sum_k w_k exp(-rate_k t), the survival marginal to stratum."""
    t, scalar = _as_times(t)
    s = np.einsum("k,k...->...", np.asarray(arm.weights),
                  np.exp(np.multiply.outer(-np.asarray(arm.rates), t)))
    return float(s) if scalar else s


def cumulative_hazard(arm, t):
    """H(t) = -log S(t), evaluated in the log domain."""
    t, scalar = _as_times(t)
    value = _log_mixture(arm, t)[0]
    return float(value) if scalar else value


def survivor_composition(arm, t):
    """Stratum distribution among survivors at t: w_k exp(-rate_k t) / S(t).

    At t=0 this is the prior weights; as t grows it concentrates on the
    minimum-rate stratum. Entries sum to 1 at any t.
    """
    return _log_mixture(arm, _as_times(t)[0])[1]


def marginal_hazard(arm, t):
    """h(t) = sum_k rate_k w_k exp(-rate_k t) / S(t).

    Equals the composition-weighted mean of the stratum rates, so it starts
    at sum_k w_k rate_k and decreases toward min(rates).
    """
    t, scalar = _as_times(t)
    h = _log_mixture(arm, t)[2]
    return float(h) if scalar else h


def marginal_density(arm, t):
    """f(t) = sum_k w_k rate_k exp(-rate_k t) = h(t) * S(t)."""
    return marginal_hazard(arm, t) * marginal_survival(arm, t)


def hazard_ratio(truth, t):
    """Marginal hazard ratio research / control at time t."""
    t, scalar = _as_times(t)
    hr = _log_mixture(truth.research, t)[2] / _log_mixture(truth.control, t)[2]
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
        tiny = np.finfo(float).tiny
        for armlabel in (ARM_CONTROL, ARM_RESEARCH):
            surv = getattr(self, f"survival_{armlabel}")
            cumh = getattr(self, f"cum_hazard_{armlabel}")
            haz = getattr(self, f"hazard_{armlabel}")
            # S is a mixture sum whose weights sum to 1 within WEIGHT_SUM_TOL
            if (np.any(surv < 0.0) or np.any(surv > 1.0 + WEIGHT_SUM_TOL)
                    or np.any(np.diff(surv) > 0.0)):
                raise ValueError(f"survival_{armlabel} must be non-increasing in [0, 1]")
            if grid[0] == 0.0 and abs(surv[0] - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError(f"survival_{armlabel} must equal 1 at t=0")
            if np.any(haz <= 0.0):
                raise ValueError(f"hazard_{armlabel} must be positive")
            # H = -log S where S is a normal float; a subnormal or zero S has
            # lost its digits, and there H must lie past -log(tiny)
            normal = surv >= tiny
            if (not np.isfinite(cumh).all()
                    or np.any(np.abs(cumh[normal] + np.log(surv[normal])) > 1e-10)
                    or np.any(cumh[~normal] < -np.log(tiny))):
                raise ValueError(f"cum_hazard_{armlabel} != -log(survival)")

    def __len__(self):
        return self.grid.size


def truth_curves(truth, grid):
    """Tabulate survival, hazard, cumulative hazard and the HR on a time grid."""
    grid = check_grid(grid)
    columns = {}
    for label in (ARM_CONTROL, ARM_RESEARCH):
        arm = getattr(truth, label)
        columns[f"survival_{label}"] = marginal_survival(arm, grid)
        # [::2] frees the composition before the next arm is evaluated
        columns[f"cum_hazard_{label}"], columns[f"hazard_{label}"] = _log_mixture(arm, grid)[::2]
    return CurveTable(grid=grid, hazard_ratio=columns["hazard_research"]
                      / columns["hazard_control"], **columns)


def default_grid(t_min=0.0, t_max=30.0, points=601):
    """Figure grid: 601 equally spaced points on [0, 30] unless overridden."""
    return check_grid(np.linspace(float(t_min), float(t_max), int(points)))
