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
H is clamped at 0, its least value; unclamped, rounding puts it at -1.1e-16
at t=0 for weights such as 0.7, 0.2, 0.1.

The times are taken in blocks of 512 on the pool of at most two threads, one
per usable CPU, each taking the next block from one queue; with one block or
one CPU the pool runs in the calling thread, which takes them all. A block's
ufuncs run with numpy's buffer at the block width, so the columns and rows
they broadcast are read in place rather than copied into the buffer.
The caller allocates two K x 512 scratch arrays per thread (2 MiB at K = 256),
so memory does not grow with the grid length. A block forms the products
-rate_k t once: their exponentials are the S terms, and the products
themselves become the composition in place. Every sum over the strata adds
them left to right, in the same order at any block width, so a time gets the
same bits on any grid, in any block, on any thread and as a scalar: the
curves are the same bytes on one CPU or two.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _pool
from .estimators import _check_integer

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
        if not all(0.0 < w < math.inf for w in weights):
            raise ValueError(f"all weights must be finite and > 0, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got sum {sum(weights)!r}")
        if not all(0.0 < r < math.inf for r in rates):
            raise ValueError(f"all rates must be finite and > 0, got {rates}")

    @property
    def n_strata(self):
        return len(self.weights)


@dataclass(frozen=True)
class TwoArmTruth:
    """Paired control/research mixture laws for a two-arm comparison."""

    control: MixtureArm
    research: MixtureArm


def check_grid(grid):
    """A time grid as a float array: non-empty, 1-d, finite, >= 0, strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d time sequence")
    if not (np.all(np.isfinite(grid)) and grid[0] >= 0.0 and np.all(np.diff(grid) > 0.0)):
        raise ValueError("grid must be finite, strictly increasing and >= 0")
    return grid


def _as_times(t):
    """Validate finite times >= 0; returns (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    # nan fails both comparisons
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError(f"time must be finite and >= 0, got {t!r}")
    return arr, arr.ndim == 0


# times per block: each pool thread reuses two K x _BLOCK scratch arrays for
# its blocks, so peak memory does not grow with the grid; at K = 256 the two
# are 2 MiB, which stays in a 2 MiB L2 cache and below numpy's 4 MiB
# huge-page size
_BLOCK = 512


def _strata_sum(terms):
    """Sum of a K x B array over its strata, adding the rows left to right.

    np.add.reduce along axis 0 adds whole rows in order when B >= 2. A single
    column is one contiguous run, which numpy sums pairwise, so that case is
    added row by row.
    """
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def _composition(log_weights, t, out):
    """Turn out, which holds the products -rate_k t at the 1-d times t
    (K x t.size), into the survivor composition there, in place, and return
    H there.

    The terms log w_k - rate_k t (log_weights is the K x 1 column of log w_k)
    are shifted by their maximum over k, exponentiated and normalised.
    H = -(top + log sum), clamped at 0: the rounded sum can put it one step
    below 0.
    """
    out += log_weights
    top = out.max(axis=0)
    out -= top
    np.exp(out, out=out)
    total = _strata_sum(out)
    out /= total
    return np.maximum(-(top + np.log(total)), 0.0)


def _columns(arm):
    """The rates of an arm negated, its rates, weights and log weights, each
    as a K x 1 column."""
    rates = np.array(arm.rates)[:, None]
    weights = np.array(arm.weights)[:, None]
    return -rates, rates, weights, np.log(weights)


def _mixture(arm, t, block=_BLOCK):
    """(S, H, h) at the times t, each shaped like t.

    The times are taken `block` at a time. Each thread takes the next block
    from one queue and evaluates it through its own two K x block scratch
    arrays, so memory does not grow with K x t.size and a thread on a slower
    CPU takes fewer blocks. With one block or one usable CPU the pool runs
    the one evaluation in the calling thread. A block's ufuncs run with
    numpy's buffer at _BLOCK, so the K x 1 columns and 1 x block rows they
    broadcast are read in place instead of copied out to the default
    8192-element buffer; the buffer size lives in numpy's errstate, so it
    holds only inside the block loop. Every strata sum runs left to right: a
    time gets the same bits in any block, on any thread, and as a scalar.
    """
    flat = t.ravel()
    negated, rates, weights, log_weights = _columns(arm)
    out = np.empty((3, flat.size))
    starts = range(0, flat.size, block)
    threads = _pool.threads(len(starts))
    scratch = np.empty((threads, 2, arm.n_strata, min(block, flat.size)))
    queue = iter(starts)
    lock = threading.Lock()

    def evaluate(i):
        with np.errstate():
            np.setbufsize(_BLOCK)
            while True:
                with lock:
                    lo = next(queue, None)
                if lo is None:
                    return
                tb = flat[lo:lo + block]
                products, terms = scratch[i, :, :, :tb.size]
                # a rate * t past the largest float is -inf: an exact 0 term
                with np.errstate(over="ignore"):
                    np.multiply(negated, tb, out=products)
                np.exp(products, out=terms)
                terms *= weights
                out[0, lo:lo + block] = _strata_sum(terms)
                # the products then become the composition, whose
                # rate-weighted sum is h; where every term is 0, H is nan,
                # which CurveTable refuses
                with np.errstate(invalid="ignore"):
                    out[1, lo:lo + block] = _composition(log_weights, tb, products)
                products *= rates
                out[2, lo:lo + block] = _strata_sum(products)

    _pool.map(evaluate, range(threads), "survmix-truth")
    return out.reshape((3,) + t.shape)


def marginal_survival(arm, t):
    """S(t) = sum_k w_k exp(-rate_k t), the survival marginal to stratum."""
    t, scalar = _as_times(t)
    s = _mixture(arm, t)[0]
    return float(s) if scalar else s


def cumulative_hazard(arm, t):
    """H(t) = -log S(t), evaluated in the log domain."""
    t, scalar = _as_times(t)
    value = _mixture(arm, t)[1]
    return float(value) if scalar else value


def survivor_composition(arm, t):
    """Stratum distribution among survivors at t: w_k exp(-rate_k t) / S(t).

    At t=0 this is the prior weights; as t grows it concentrates on the
    minimum-rate stratum. Entries sum to 1 at any t.
    """
    t = _as_times(t)[0]
    negated, _, _, log_weights = _columns(arm)
    with np.errstate(over="ignore"):
        comp = negated * t.ravel()
    _composition(log_weights, t.ravel(), comp)
    return comp.reshape((arm.n_strata,) + t.shape)


def marginal_hazard(arm, t):
    """h(t) = sum_k rate_k w_k exp(-rate_k t) / S(t).

    Equals the composition-weighted mean of the stratum rates, so it starts
    at sum_k w_k rate_k and decreases toward min(rates).
    """
    t, scalar = _as_times(t)
    h = _mixture(arm, t)[2]
    return float(h) if scalar else h


def marginal_density(arm, t):
    """f(t) = sum_k w_k rate_k exp(-rate_k t) = h(t) * S(t)."""
    t, scalar = _as_times(t)
    s, _, h = _mixture(arm, t)
    return float(h * s) if scalar else h * s


def hazard_ratio(truth, t):
    """Marginal hazard ratio research / control at time t."""
    t, scalar = _as_times(t)
    research, control = _mixture(truth.research, t)[2], _mixture(truth.control, t)[2]
    with np.errstate(over="ignore"):  # inf past the largest float
        hr = research / control
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
    """Gridded truth curves for both arms; hazard_ratio is research / control."""

    grid: np.ndarray
    survival_control: np.ndarray
    survival_research: np.ndarray
    hazard_control: np.ndarray
    hazard_research: np.ndarray
    cum_hazard_control: np.ndarray
    cum_hazard_research: np.ndarray

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

    @property
    def hazard_ratio(self):
        with np.errstate(over="ignore"):  # inf past the largest float
            return self.hazard_research / self.hazard_control


def truth_curves(truth, grid):
    """Tabulate survival, hazard, cumulative hazard and the HR on a time grid."""
    grid = check_grid(grid)
    columns = {}
    for label in (ARM_CONTROL, ARM_RESEARCH):
        (columns[f"survival_{label}"], columns[f"cum_hazard_{label}"],
         columns[f"hazard_{label}"]) = _mixture(getattr(truth, label), grid)
    return CurveTable(grid=grid, **columns)


def default_grid(t_min=0.0, t_max=30.0, points=601):
    """Figure grid: 601 equally spaced points on [0, 30] unless overridden."""
    t_min, t_max = float(t_min), float(t_max)
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError(f"grid min and max must be finite, got {t_min:g} and {t_max:g}")
    _check_integer("grid points", points)
    # an end near the largest float can overflow linspace's arithmetic even
    # where the grid is finite; a grid that is not, check_grid refuses
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(t_min, t_max, points)
    return check_grid(grid)
