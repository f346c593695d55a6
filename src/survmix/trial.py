"""Potential-outcomes simulator for an idealised two-arm randomised trial.

Each individual carries a latent stratum and a *pair* of potential event
times: the time they would fail under control and under research treatment.
The marginal law of each potential time is fixed by the arm's mixture; the
joint law is not identified by any trial, so the coupling between the pair is
a configuration choice:

    comonotone   both times invert one shared uniform,
                 T(z) = -log(U) / rate(stratum, z)  (rank-preserving)
    independent  each time inverts its own uniform

Either way the observable marginals are identical. Every random quantity is a
pure function of (seed, individual id, stream), so generation order and
parallelism cannot change a dataset.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .estimators import _FLAG, _TIME, _check, _check_integer
from .frailty import TwoArmTruth

COUPLING_COMONOTONE = "comonotone"
COUPLING_INDEPENDENT = "independent"
COUPLINGS = (COUPLING_INDEPENDENT, COUPLING_COMONOTONE)

# a CensoringSpec's kind, at index (admin_time is set) + 2 * (rate is set)
CENSORING_KINDS = ("none", "administrative", "exponential", "both")

COVARIATES = ("arm", "stratum")

DEFAULT_N_PER_ARM = 500

# The dataset columns in the order simulate writes them: each one's dtype,
# whether only --reveal-latent writes it, and the rule its values must meet
# (a dataset file's reader also checks that no id repeats)
_Column = namedtuple("_Column", "dtype latent rule")
_DATASET_COLUMNS = {
    "id": _Column(np.int64, False, None),
    "arm": _Column(np.int64, False, _FLAG),
    "stratum": _Column(np.int64, True, (">= 0", lambda values: values < 0)),
    "potential_time_0": _Column(np.float64, True, _TIME),
    "potential_time_1": _Column(np.float64, True, _TIME),
    "observed_time": _Column(np.float64, False, _TIME),
    "event": _Column(np.int64, False, _FLAG),
}


@dataclass(frozen=True)
class CensoringSpec:
    """Right-censoring on top of the potential event times: at admin_time, at
    an independent Exponential(rate) time, or at the earlier of the two. Each
    is None or finite and > 0; the kind follows from which are set."""

    admin_time: float = None
    rate: float = None

    def __post_init__(self):
        if self.admin_time is not None and not 0.0 < self.admin_time < math.inf:
            raise ValueError("administrative censoring needs a finite admin_time > 0")
        if self.rate is not None and not 0.0 < self.rate < math.inf:
            raise ValueError("exponential censoring needs a finite rate > 0")

    @property
    def kind(self):
        """One of CENSORING_KINDS: none, administrative, exponential or both."""
        return CENSORING_KINDS[(self.admin_time is not None) + 2 * (self.rate is not None)]

    def label(self):
        """Compact label for tables, e.g. 'admin@2' or 'admin@2+exp@0.1'."""
        parts = []
        if self.admin_time is not None:
            parts.append(f"admin@{self.admin_time:g}")
        if self.rate is not None:
            parts.append(f"exp@{self.rate:g}")
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class TrialConfig:
    truth: TwoArmTruth
    n_per_arm: int = DEFAULT_N_PER_ARM
    coupling: str = COUPLING_COMONOTONE
    censoring: CensoringSpec = CensoringSpec()
    seed: int = 0

    def __post_init__(self):
        _check_integer("n_per_arm", self.n_per_arm)
        if self.n_per_arm < 1:
            raise ValueError("n_per_arm must be >= 1")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}, got {self.coupling!r}")
        rng.check_seed(self.seed)
        # Potential outcomes need one latent stratum per individual, so the
        # two arms must share the stratum distribution.
        c, r = self.truth.control, self.truth.research
        if c.weights != r.weights:
            raise ValueError(
                "simulation requires identical stratum weights in both arms; "
                f"got control {c.weights} vs research {r.weights}"
            )


def check_covariates(names):
    """The covariate names as a tuple of distinct COVARIATES, 'arm' among them."""
    names = tuple(names)
    if not names:
        raise ValueError(f"no covariates given; choose from {', '.join(COVARIATES)}")
    for i, name in enumerate(names):
        if name not in COVARIATES:
            raise ValueError(f"unknown covariate {name!r}; choose from {', '.join(COVARIATES)}")
        if name in names[:i]:
            raise ValueError(f"covariate {name!r} is repeated")
    if "arm" not in names:
        raise ValueError(f"covariates {', '.join(names)} lack 'arm', the treatment")
    return names


def covariate_matrix(columns, names):
    """Regression columns, e.g. ('arm',) or ('arm', 'stratum'), taken from a
    mapping of column name to array; a KeyError names a missing column."""
    return np.column_stack([np.asarray(columns[n], dtype=float)
                            for n in check_covariates(names)])


class Dataset:
    """Simulated trial data, stored column-wise; immutable after creation.

    One array per column of _DATASET_COLUMNS, each meeting its rule; the id
    column is the attribute `ids`, and event is bool.
    """

    def __init__(self, ids, arm, stratum, potential_time_0, potential_time_1,
                 observed_time, event, config):
        self.config = config
        n = np.size(ids)
        for (name, column), values in zip(_DATASET_COLUMNS.items(), (
                ids, arm, stratum, potential_time_0, potential_time_1, observed_time, event)):
            values = np.asarray(values)
            if values.shape != (n,):
                raise ValueError(f"column {name} has shape {values.shape}, expected ({n},)")
            _check(name, values, column.rule)
            values = values.astype(bool if name == "event" else column.dtype, copy=False)
            values.flags.writeable = False
            setattr(self, "ids" if name == "id" else name, values)

    def __len__(self):
        return self.ids.size

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.config == other.config and all(
            np.array_equal(value, getattr(other, name))
            for name, value in vars(self).items() if name != "config")

    def covariate_matrix(self, names):
        """Covariate columns for regression, e.g. ('arm',) or ('arm', 'stratum')."""
        return covariate_matrix(vars(self), names)


def _potential_times(config, seed):
    """ids, arm, stratum and the two potential times of every individual,
    drawn with `seed` in place of config.seed.

    `seed` is one seed, or a 1-d sequence of seeds; then stratum and the
    times have one row per seed, each row the draw with that seed alone.
    """
    truth, n = config.truth, config.n_per_arm
    ids = np.arange(2 * n, dtype=np.int64)
    arm = (ids >= n).astype(np.int64)

    cum_weights = np.cumsum(truth.control.weights)
    u_strat = rng.substream_uniforms(seed, ids, rng.STREAM_STRATUM)
    stratum = np.searchsorted(cum_weights, u_strat, side="left")
    stratum = np.minimum(stratum, len(cum_weights) - 1)

    # unit-rate exponentials, one stream per potential time; the comonotone
    # coupling reuses the primary one
    e0 = -np.log(rng.substream_uniforms(seed, ids, rng.STREAM_EVENT_PRIMARY))
    e1 = e0
    if config.coupling == COUPLING_INDEPENDENT:
        e1 = -np.log(rng.substream_uniforms(seed, ids, rng.STREAM_EVENT_SECONDARY))
    # a time past the largest float is inf, which the sample rules refuse
    with np.errstate(over="ignore"):
        return (ids, arm, stratum, e0 / np.asarray(truth.control.rates)[stratum],
                e1 / np.asarray(truth.research.rates)[stratum])


def _censor(seed, ids, arm, t0, t1, specs):
    """Observed times and event indicators of the assigned potential times,
    one pair per spec of `specs`, as an iterator.

    The censoring draws of `seed` are made once, and only when a spec has a
    rate; divided by that rate they are its censoring times.
    """
    t_assigned = np.where(arm == 0, t0, t1)
    del t0, t1  # freed during the fits when the caller keeps no reference
    if any(spec.rate is not None for spec in specs):
        draws = -np.log(rng.substream_uniforms(seed, ids, rng.STREAM_CENSORING))
    for spec in specs:
        censor = np.inf
        if spec.admin_time is not None:
            censor = np.minimum(censor, spec.admin_time)
        if spec.rate is not None:
            # past the largest float the censoring time is inf, the exact
            # answer; the scope closes before the yield, which is the caller's
            with np.errstate(over="ignore"):
                censor = np.minimum(censor, draws / spec.rate)
        yield np.minimum(t_assigned, censor), t_assigned <= censor


def apply_censoring(dataset, spec, seed):
    """Re-derive observed_time and event from the potential times under `spec`.

    Administrative: observe min(T, admin_time); exponential: min(T, C) with
    C ~ Exponential(rate) drawn independently per individual from the
    censoring substream of `seed`; 'both' takes the min of all three.
    """
    [(observed, event)] = _censor(seed, dataset.ids, dataset.arm, dataset.potential_time_0,
                                  dataset.potential_time_1, [spec])
    config = dataset.config
    if config is not None and config.censoring != spec:
        config = replace(config, censoring=spec)
    return Dataset(dataset.ids, dataset.arm, dataset.stratum,
                   dataset.potential_time_0, dataset.potential_time_1,
                   observed, event, config)


def simulate(config):
    """Draw the full trial: strata, coupled potential times, then censoring.

    Deterministic given config.seed. Exactly n_per_arm individuals per arm,
    ids 0 .. 2n-1, arm 0 (control) first.
    """
    ids, arm, stratum, t0, t1 = _potential_times(config, config.seed)
    [(observed, event)] = _censor(config.seed, ids, arm, t0, t1, [config.censoring])
    return Dataset(ids, arm, stratum, t0, t1, observed, event, config)


def censored_replicates(config, seeds, specs):
    """Arm and, per spec, the observed times and events of one trial per seed.

    Row r of each spec's arrays equals simulate(replace(config, seed=seeds[r],
    censoring=spec)): the potential outcomes and censoring draws are made
    once for all specs. Returns the arm column and an iterator over the specs.
    """
    ids, arm, _, t0, t1 = _potential_times(config, seeds)
    return arm, _censor(seeds, ids, arm, t0, t1, specs)
