"""Nonparametric and semiparametric estimation from right-censored samples.

Kaplan-Meier and Nelson-Aalen step estimators, Cox partial-likelihood
regression by safeguarded Newton-Raphson with the Breslow tie correction,
period-specific Cox fits on left-truncated risk sets, and the Breslow
cumulative baseline hazard.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _pool

Z_975 = 1.959964  # normal 97.5% quantile pinned for reproducible intervals

SCORE_TOL = 1e-8
MAX_ITERATIONS = 50
DIVERGENCE_BOUND = 15.0  # |beta| beyond this signals monotone likelihood


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step estimate over the distinct event times.

    `values[j]` is the estimate on [times[j], times[j+1]); before times[0]
    the estimate is `initial` (1 for survival, 0 for cumulative hazard).
    """

    times: np.ndarray
    values: np.ndarray
    variance: np.ndarray
    n_risk: np.ndarray
    n_event: np.ndarray
    initial: float = 1.0

    def at(self, t):
        """Evaluate the step function at scalar or array times; a nan time
        has no step and raises."""
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError(f"step curve time must not be nan, got {t}")
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], self.initial)
        return float(out) if t.ndim == 0 else out


@dataclass(frozen=True)
class CoxFit:
    """Maximum partial-likelihood estimate with convergence diagnostics."""

    names: tuple
    coef: np.ndarray
    se: np.ndarray
    iterations: int
    converged: bool
    loglik_at_max: float
    score_at_max: np.ndarray
    n_events: int

    def _arm_index(self):
        return self.names.index("arm") if "arm" in self.names else 0

    @property
    def log_hr(self):
        """Treatment log hazard ratio (the 'arm' coefficient if present)."""
        return float(self.coef[self._arm_index()])

    @property
    def log_hr_se(self):
        return float(self.se[self._arm_index()])


@dataclass(frozen=True)
class PeriodFit:
    """One Cox fit per follow-up period [0,c1), [c1,c2), ... [c_{m-1},c_m)."""

    cutpoints: tuple
    fits: tuple
    n_events: tuple
    n_entered: tuple

    @property
    def intervals(self):
        edges = (0.0,) + self.cutpoints
        return tuple(zip(edges[:-1], edges[1:]))


# The rules of a right-censored sample, each as its text and the mask of the
# values that break it; every entry point, and trial's dataset columns, use these
_TIME = ("finite and > 0", lambda values: ~np.isfinite(values) | (values <= 0.0))
_FLAG = ("0 or 1", lambda values: (values != 0) & (values != 1))
_FINITE = ("finite", lambda values: ~np.isfinite(values))


def _check(name, values, rule, first_row=0):
    """Raise a ValueError naming the first of `values` that breaks `rule`:
    its row, counted from `first_row` (and its sample, in a 2-d stack), and
    its value. A rule of None, and a bool array under the 0/1 rule, pass unread."""
    if rule is None or (rule is _FLAG and values.dtype == bool):
        return
    text, broken = rule
    bad = np.flatnonzero(broken(values))
    if bad.size:
        index = np.unravel_index(bad[0], values.shape)
        where = f"row {index[-1] + first_row}" + "".join(f" of sample {r}" for r in index[:-1])
        raise ValueError(f"{where}: {name} must be {text}, got {values[index]:g}")


def _check_time(name, value):
    """Raise a ValueError naming `name` and the scalar `value` unless it meets
    _TIME's rule; it also holds for a rate or a weight."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be {_TIME[0]}, got {value:g}")


def _check_integer(name, value):
    """Raise a ValueError unless `value` is an integer; bool is an Integral,
    but True is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _flags(name, values):
    """values as a bool array, once each is 0 or 1."""
    values = np.asarray(values)
    _check(name, values, _FLAG)
    return values.astype(bool, copy=False)


def _arm(arm, shape):
    """arm as a bool array of the times' `shape`, once each entry is 0 or 1:
    one entry per row, or one row that every sample of a stack shares."""
    arm = np.asarray(arm)
    if arm.shape not in (shape, shape[-1:]):
        raise ValueError(f"arm has shape {arm.shape} but the times have shape {shape}")
    return np.broadcast_to(_flags("arm", arm), shape)


def _sample(time, event, ndim=1):
    """time as floats and event as bool, once they meet the sample rules; the
    times are read in full only when their least or greatest (or nan) breaks one."""
    time, event = np.asarray(time, dtype=float), _flags("event", event)
    if time.ndim != ndim or time.size == 0 or time.shape != event.shape:
        raise ValueError(f"need matching non-empty {ndim}-d time and event arrays")
    if _TIME[1](np.array([time.min(), time.max()])).any():
        _check("time", time, _TIME)
    return time, event


class _ConstantCovariate(ValueError):
    """A covariate is constant among the events: no partial-likelihood maximum."""


def check_cutpoints(cutpoints):
    """Period boundaries as a tuple of floats: non-empty, finite, > 0, strictly
    increasing."""
    # a string is iterable too: "148" would cut at 1, 4 and 8
    if isinstance(cutpoints, (str, bytes)):
        raise ValueError(f"cutpoints must be a sequence of numbers, not the string "
                         f"{cutpoints!r}")
    cutpoints = tuple(float(c) for c in cutpoints)
    for c in cutpoints:
        _check_time("cutpoints", c)
    if len(cutpoints) == 0 or any(b <= a for a, b in zip(cutpoints, cutpoints[1:])):
        raise ValueError("cutpoints must be finite, strictly increasing and > 0")
    return cutpoints


def _sort_and_group(time, event):
    """Sort a sample once by time and group it at its distinct event times.

    Group j is the j-th distinct time with an event; its risk set is every
    sorted row from start[j] on. Returns the stable sort order, the sorted
    event flags, start and the deaths d of each group.

    The stable order is numpy's default (SIMD) argsort with the row indices
    of each run of tied times then put in increasing order: one sort of the
    keys run * n + index over the tied rows only. That is the permutation of
    argsort(kind="stable"), whichever kernel numpy picks, at a fraction of
    its cost.
    """
    time, event = _sample(time, event)
    if not event.any():
        raise ValueError("sample contains no events")
    n = time.size
    order = np.argsort(time)
    time = time[order]
    # head[i]: sorted row i starts a distinct time (head[n] closes the last)
    head = np.empty(n + 1, dtype=bool)
    head[0] = head[n] = True
    np.not_equal(time[1:], time[:-1], out=head[1:n])
    # stable: the Cox sums add tied rows in input order
    tied = np.flatnonzero(~(head[:-1] & head[1:]))
    if tied.size:
        offset = np.cumsum(head[tied], dtype=np.int64)
        offset *= n
        key = order[tied]
        key += offset
        key.sort()
        key -= offset
        order[tied] = key
        del tied, offset, key
    event = event[order]
    # first sorted row of each distinct time, then of each with an event
    first = np.flatnonzero(head[:n])
    d = np.add.reduceat(event.astype(np.int64), first)
    return order, event, first[d > 0], d[d > 0]


def _covariate_columns(x, n):
    """x as a float matrix of one column per covariate and n rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != n:
        raise ValueError("covariate rows must match the number of observations")
    for j in range(x.shape[1]):
        _check(f"covariate {j}", x[:, j], _FINITE)
    return x


def _risk_table(time, event):
    """The distinct event times of a sample, with the rows at risk and the
    deaths at each; the sort order is freed on return."""
    order, _, start, d = _sort_and_group(time, event)
    return np.asarray(time, dtype=float)[order[start]], order.size - start, d


def kaplan_meier(time, event):
    """Product-limit survival estimate with Greenwood variance."""
    times, n_risk, d = _risk_table(time, event)
    values = np.cumprod(1.0 - d / n_risk)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Greenwood's formula; undefined (nan) once the estimate hits zero
        variance = values**2 * np.cumsum(d / (n_risk * (n_risk - d)))
    return StepCurve(times, values, variance, n_risk, d, initial=1.0)


def nelson_aalen(time, event):
    """Cumulative-hazard estimate with increments d/n and Poisson variance."""
    times, n_risk, d = _risk_table(time, event)
    values = np.cumsum(d / n_risk)
    variance = np.cumsum(d / n_risk.astype(float) ** 2)
    return StepCurve(times, values, variance, n_risk, d, initial=0.0)


# Rows from which the columns of a work buffer are suffix-summed on the pool,
# where they outweigh the start of two fresh threads. Four columns took 0.43
# ms on the calling thread against 1.3 ms on two at 1e4 rows, 1.6 ms either
# way at 3e4, and 4.5 ms against 2.3 ms at 5e4 (2-vCPU Xeon, numpy 2.4)
_POOL_ROWS = 32_768


def _suffix_sum(out):
    """sum out[..., i:] for every i, in place along the last axis, by
    recursive doubling: each row out[c] of a 2-d `out` gets the bits it would
    alone.

    Rounding error grows with log2(n) rather than n, which keeps the Cox
    score resolvable below its 1e-8 tolerance even for ~1e6 rows. The rows
    are contiguous and independent: from _POOL_ROWS entries on, each is a
    separate item of the pool's survmix-cox threads; below, one pass of the
    doubling adds all rows at once in the calling thread.
    """
    def doubling(a):
        n = a.shape[-1]
        shift = 1
        while shift < n:
            a[..., : n - shift] += a[..., shift:]
            shift *= 2

    if out.shape[-1] >= _POOL_ROWS:
        _pool.map(doubling, list(np.atleast_2d(out)), "survmix-cox")
    else:
        doubling(out)
    return out


# numpy's OpenBLAS runs a matrix-vector product of more than 9216 entries on
# threads of its own, which keep spinning for tens of milliseconds after it
# returns, on the CPU that the second survmix-cox thread needs: the pooled
# suffix sums then took 21 ms against 14. A block of this many rows (of up to
# four covariates) stays on the calling thread, and each row gets the same
# bits in any block of two or more rows (numpy takes a one-row product
# through another kernel)
_MATVEC_ROWS = 2048


def _matvec(a, v, out):
    """a @ v into `out`, a block of _MATVEC_ROWS rows at a time; the last block
    takes one row more rather than leave a row alone."""
    begin = 0
    for end in [*range(_MATVEC_ROWS, a.shape[0] - 1, _MATVEC_ROWS), a.shape[0]]:
        np.matmul(a[begin:end], v, out=out[begin:end])
        begin = end
    return out


def _is_binary(column):
    """Every value is exactly +0.0 or 1.0 (-0.0 would flip the sign of a zero
    product)."""
    return bool(np.all((column == 1.0) | ((column == 0.0) & ~np.signbit(column))))


# Distinct event times that _CoxData takes at a time in its (G, p) and
# (G, p, p) sums, so that their scratch does not grow with G: 4096 x (1 + p +
# p^2) floats are 229 KB at p = 2
_EVENT_BLOCK = 4096


class _CoxData:
    """A sample's risk sets and sorted covariates, as the Cox computations
    read them.

    loglik_score_info works in one (q, n) buffer, allocated at the first
    evaluation (by then cox_fit has dropped the caller's unsorted arrays),
    column-major: each of its q columns is one contiguous row work[c] over
    the n sorted rows. Column 0 holds w = exp(x beta), columns 1..p hold
    x_k w, and the rest hold the products x_k x_l w that `_pair_column` does
    not map onto another column. The per-event-time sums of the covariates
    over the events are built _EVENT_BLOCK event times at a time, each block
    from its own rows.
    """

    def __init__(self, time, event, x, names=None):
        order, event, self.start, d = _sort_and_group(time, event)
        # np.take copies each row as one chunk: several times faster than x[order]
        self.x = x = np.take(_covariate_columns(x, order.size), order, axis=0)
        del order
        self.n_events = int(d.sum())
        # the deaths as floats, once: the evaluation's sums weight by them
        self.d = d = d.astype(float)
        n, self.p = x.shape
        self.names = tuple(names) if names is not None else tuple(
            f"x{j}" for j in range(self.p))
        if len(self.names) != self.p:
            raise ValueError("one covariate name per column required")
        # constant among the events: every event row equals the first one
        first = np.argmax(event)
        for j, name in enumerate(self.names):
            if not np.any((x[:, j] != x[first, j]) & event):
                raise _ConstantCovariate(
                    f"covariate {name} is constant among events; "
                    "the partial likelihood has no maximum"
                )
        # per-event-time sum of covariates over the events, a column of a
        # block of event times at a time; the censored rows up to the next
        # event time add exact zeros, so that a censored row makes the sum of
        # an all -0.0 group +0.0. A block's last group ends where the next
        # block's first begins
        start, G = self.start, self.start.size
        self.event_x_sum = np.empty((G, self.p))
        for first in range(0, G, _EVENT_BLOCK):
            stop = min(first + _EVENT_BLOCK, G)
            rows = slice(start[first], start[stop] if stop < G else n)
            for k in range(self.p):
                np.add.reduceat(np.where(event[rows], x[rows, k], 0.0),
                                start[first:stop] - rows.start,
                                out=self.event_x_sum[first:stop, k])
        # buffer column of each x_k x_l w, computed as (x_k w) x_l. Where x_k
        # is 0/1 that is x_k w itself, and where x_k and x_l are both 0/1 the
        # products (x_k w) x_l and (x_l w) x_k are bitwise equal, so one
        # column serves both. With only one of them 0/1 the orders can differ:
        # x_k = 0 and x_l w overflowing give 0 one way and inf * 0 = nan the
        # other
        binary = [_is_binary(x[:, j]) for j in range(self.p)]
        self._pair_column = np.empty((self.p, self.p), dtype=np.intp)
        self._products = []
        for k in range(self.p):
            for l in range(self.p):
                if k == l and binary[k]:
                    self._pair_column[k, l] = 1 + k
                elif l < k and binary[k] and binary[l]:
                    self._pair_column[k, l] = self._pair_column[l, k]
                else:
                    self._pair_column[k, l] = 1 + self.p + len(self._products)
                    self._products.append((k, l))
        self._work = None

    def loglik_score_info(self, beta):
        """Breslow partial log likelihood and its first two derivatives.

        A Newton step far out can overflow exp(x beta): the result is then
        not finite, and _newton halves the step, so numpy need not warn.

        For p >= 2, xbar and the centred array are built _EVENT_BLOCK event
        times at a time, in scratch allocated once per evaluation, so no
        (G, p) or (G, p, p) array is held. Row 0 of the scratch carries the
        information and score of the blocks before, with weight 1: numpy adds
        the event times of these sums one after another, so each block's sum
        continues from the carry in the order of one sum over every event
        time, with the same bits as the whole arrays. At p = 1 numpy sums
        the contiguous G-vectors pairwise, where a carry row would move the
        bits, so the loop runs as one block with no carry row. The 1-d sums
        of ll are taken whole.
        """
        if self._work is None:
            self._work = np.empty((1 + self.p + len(self._products), self.x.shape[0]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            work, x, p, start, d = self._work, self.x, self.p, self.start, self.d
            # exp and log go through contiguous arrays: numpy's vector and
            # strided loops may round them differently
            np.exp(_matvec(x, beta, work[0]), out=work[0])
            np.multiply(x.T, work[0], out=work[1:1 + p])
            for c, (k, l) in enumerate(self._products, start=1 + p):
                np.multiply(work[1 + k], x[:, l], out=work[c])
            # suffix sums give risk-set aggregates at the head row of each group
            _suffix_sum(work)
            w_risk = work[0].take(start)
            # column 0 is read by now: its head holds the terms of ll, then
            # each block's gathers (take's 'clip' mode writes straight into
            # it) and running sums
            G = start.size
            head = work[0, :G]
            ll = np.sum(_matvec(self.event_x_sum, beta, head))
            ll = float(ll - np.sum(np.multiply(d, np.log(w_risk, out=head), out=head)))
            block = _EVENT_BLOCK if p > 1 else G
            # xbar, then the score's terms, and the centred array are
            # C-contiguous, as einsum's and the score's summation orders need;
            # each is filled a column at a time
            weights = np.empty(min(block, G) + 1)
            xbar = np.empty((weights.size, p))
            centred = np.empty((weights.size, p, p))
            weights[0] = 1.0
            for first in range(0, G, block):
                stop = min(first + block, G)
                heads, w_block, d_block = start[first:stop], w_risk[first:stop], d[first:stop]
                rows = slice(1, 1 + stop - first)
                gathered = work[0, :stop - first]
                for k in range(p):
                    np.take(work[1 + k], heads, out=gathered, mode="clip")
                    np.divide(gathered, w_block, out=xbar[rows, k])
                for k in range(p):
                    for l in range(p):
                        # a product column that _pair_column maps onto x_k w
                        # gives xbar_k, and a pair sharing its mirror's column
                        # gets its bits
                        c = self._pair_column[k, l]
                        if l < k and c == self._pair_column[l, k]:
                            centred[rows, k, l] = centred[rows, l, k]
                            continue
                        if c <= p:
                            ratio = xbar[rows, c - 1]
                        else:
                            ratio = np.take(work[c], heads, out=gathered, mode="clip")
                            ratio /= w_block
                        product = np.multiply(xbar[rows, k], xbar[rows, l],
                                              out=centred[rows, k, l])
                        np.subtract(ratio, product, out=product)
                # the first block has no sums before it to carry
                summed = slice(0 if first else 1, rows.stop)
                weights[rows] = d_block
                info = np.einsum("j,jkl->kl", weights[summed], centred[summed])
                centred[0] = info
                # the score from d_j xbar_j, scaled in place now that info is done
                terms = xbar[rows]
                terms *= d_block[:, None]
                np.subtract(self.event_x_sum[first:stop], terms, out=terms)
                # numpy's axis-0 sum adds the columns of a (G, p >= 2) array
                # row by row from +0.0: each column's running sum gets its
                # bits faster, and + 0.0 turns the -0.0 of an all -0.0 column
                # into the sum's +0.0. At p = 1 the sum is pairwise
                if p == 1:
                    score = np.sum(xbar[summed], axis=0)
                else:
                    running = work[0, :summed.stop - summed.start]
                    score = np.array([np.add.accumulate(xbar[summed, k], out=running)[-1]
                                      for k in range(p)]) + 0.0
                xbar[0] = score
            return ll, score, info


class _ArmRiskSets:
    """Risk sets of a stack of samples whose one covariate is the 0/1 arm.

    The risk-set sum of exp(beta * arm) at an event time is n0 + exp(beta) n1
    over the exact integer counts at risk in each arm, so one evaluation of
    the partial likelihood costs one pass over the rows. The counts are dense
    (m, n) arrays over each sample's sorted rows: an event row holds the
    counts of its tie group and one death, any other row no death, so it
    adds exact zeros.
    """

    def __init__(self, time, event, arm):
        self.m, n = time.shape
        # flat position of each sample's sorted rows; no count depends on the
        # order of ties, so any sort will do
        order = np.argsort(time, axis=1, kind="quicksort")
        order += np.arange(0, self.m * n, n)[:, None]
        time = np.take(time, order)
        # 2 * event + arm, one byte per row
        code = 2 * event.view(np.int8) + arm
        code = np.take(code, order)
        del order
        arm_1 = code & 1
        self.deaths = (code >> 1).astype(float)
        self.event_arm_sum = (code == 3).sum(axis=1)
        # arm-1 rows sorted before each row, and rows from it on
        before_1 = np.cumsum(arm_1, axis=1, dtype=np.int32)
        total_1 = before_1[:, -1:].copy()
        before_1 -= arm_1
        at_risk = n - np.arange(n)
        # an event row that ties with the row before it takes the counts of
        # the first row of its tie group. Continuous times have no such row,
        # and the test costs a tenth of the tie-head pass it skips
        if ((time[:, 1:] == time[:, :-1]) & (code[:, 1:] >= 2)).any():
            head = np.ones(time.shape, dtype=bool)
            head[:, 1:] = time[:, 1:] != time[:, :-1]
            first = np.maximum.accumulate(np.where(head, np.arange(n), 0), axis=1)
            before_1 = np.take_along_axis(before_1, first, axis=1)
            at_risk = n - first
        del time  # the sorted times end with the tie test: free them first
        self.n1 = (total_1 - before_1).astype(float)
        self.n0 = at_risk - self.n1
        self._work = np.empty((2, self.m, n))

    def loglik_score_info(self, beta):
        """Breslow partial log likelihood, score and information of every
        sample at the (m, 1) coefficients `beta`, not finite where exp(beta)
        overflows (then _newton halves the step)."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e_n1, w_risk = self._work
            np.multiply(np.exp(beta), self.n1, out=e_n1)
            np.add(self.n0, e_n1, out=w_risk)
            xbar = np.divide(e_n1, w_risk, out=e_n1)
            log_w = np.log(w_risk, out=w_risk)
            ll = beta[:, 0] * self.event_arm_sum - np.einsum("ij,ij->i", self.deaths, log_w)
            d_xbar = np.einsum("ij,ij->i", self.deaths, xbar)
            info = d_xbar - np.einsum("ij,ij,ij->i", self.deaths, xbar, xbar)
            return ll, (self.event_arm_sum - d_xbar)[:, None], info[:, None, None]


def _newton_steps(info, score, rows):
    """info^-1 score of the selected rows, and which of them are singular."""
    delta = np.zeros_like(score)
    singular = np.zeros(len(score), dtype=bool)
    try:
        delta[rows] = np.linalg.solve(info[rows], score[rows, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the stack
        for r in np.flatnonzero(rows):
            try:
                delta[r] = np.linalg.solve(info[r], score[r, :, None])[:, 0]
            except np.linalg.LinAlgError:
                singular[r] = True
    return delta, singular


def _newton(evaluate, m, p):
    """Safeguarded Newton-Raphson on m independent log likelihoods at once.

    evaluate(beta) returns the log likelihood (m,), score (m, p) and
    information (m, p, p) at the (m, p) coefficients `beta`, row r from
    beta[r] alone, so each halving evaluation is taken whole. Every row
    starts at 0 and moves on its own: a step is halved while it would
    decrease the row's log likelihood or make it, its score or its
    information not finite. A row stops once max|score| < SCORE_TOL, at
    MAX_ITERATIONS, or as diverged (a singular information, or |beta| past
    DIVERGENCE_BOUND) or stalled (beta no longer moves). Returns beta, ll,
    score, info, iterations and converged, one entry per row.
    """
    beta = np.zeros((m, p))
    ll, score, info = evaluate(beta)
    iterations = np.zeros(m, dtype=np.int64)
    diverged = np.zeros(m, dtype=bool)
    stalled = np.zeros(m, dtype=bool)
    while True:
        active = ~(diverged | stalled) & (iterations < MAX_ITERATIONS) \
            & (np.max(np.abs(score), axis=1) >= SCORE_TOL)
        if not active.any():
            break
        iterations += active
        delta, singular = _newton_steps(info, score, active)
        diverged |= singular
        active &= ~singular
        # halve steps that decrease the log likelihood by more than its own
        # floating-point evaluation noise; exact comparison would flip on
        # noise once the true decrement is microscopic
        ll_slack = 1e-12 * (1.0 + np.abs(ll))
        step = np.ones(m)
        candidate, ll_new, score_new, info_new = beta, ll, score, info
        halving = active  # the same array: later updates must not use &=
        while halving.any():
            # a row with delta 0 gets beta + 0.0, bit for bit beta (never -0.0)
            candidate = beta + step[:, None] * delta
            ll_new, score_new, info_new = evaluate(candidate)
            finite = np.isfinite(ll_new) & np.isfinite(score_new).all(axis=1) \
                & np.isfinite(info_new).all(axis=(1, 2))
            halving = halving & ((ll_new < ll - ll_slack) | ~finite) & (step > 2.0**-20)
            step[halving] *= 0.5
        moved = np.max(np.abs(candidate - beta), axis=1)
        beta, ll, score, info = candidate, ll_new, score_new, info_new
        size = np.max(np.abs(beta), axis=1)
        diverged |= active & (size > DIVERGENCE_BOUND)
        # stalled at numerical precision; the score decides
        stalled |= active & (moved < 1e-14 * (1.0 + size))
    converged = ~diverged & (np.max(np.abs(score), axis=1) < SCORE_TOL)
    return beta, ll, score, info, iterations, converged


def cox_fit(time, event, x, names=None):
    """Maximise the Cox partial likelihood (Breslow ties) by Newton-Raphson.

    Starts at beta = 0; a step is halved while it would decrease the log
    partial likelihood. Convergence means max|score| < SCORE_TOL. A
    trajectory escaping |beta| > DIVERGENCE_BOUND is flagged converged=False
    (monotone likelihood / separation), never raised.

    The coefficients of a fit that does not converge can differ between
    numpy's AVX-512 and AVX2 kernels: on a ridge where the information is
    nearly singular, their exp rounding can send the steps apart, as on
    time (2, 7, 2), events (1, 1, 0) and x ((2, -1), (1, 0), (0.5, 0.5)),
    where the one reaches (514.8, 496.9) and the other (-115.1, -121.1).
    """
    data = _CoxData(time, event, x, names)
    # the fit reads only the sorted copies; where the caller holds no other
    # reference the unsorted arrays are freed before the first evaluation
    # allocates the work buffer
    del time, event, x

    def evaluate(beta):
        ll, score, info = data.loglik_score_info(beta[0])
        return np.array([ll]), score[None], info[None]

    beta, ll, score, info, iterations, converged = _newton(evaluate, 1, data.p)
    info = info[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            covariance = np.linalg.inv(info)
            se = np.sqrt(np.diag(covariance))
        except np.linalg.LinAlgError:
            se = np.full(data.p, np.inf)
    return CoxFit(names=data.names, coef=beta[0], se=se, iterations=int(iterations[0]),
                  converged=bool(converged[0]), loglik_at_max=float(ll[0]),
                  score_at_max=score[0], n_events=data.n_events)


def cox_log_hr_stack(time, event, arm):
    """Arm-only Cox log hazard ratios of a stack of samples, one per row.

    `time` and `event` are (m, n); `arm` is the 0/1 treatment column, one
    row per sample or one shared by all. Entry r is cox_fit(time[r],
    event[r], arm[r]).log_hr to rounding, or nan where that fit raises (no
    events, or events in one arm only) or does not converge. All rows share
    one stacked Newton-Raphson solve.
    """
    time, event = _sample(time, event, ndim=2)
    arm = _arm(arm, time.shape)
    events = event.sum(axis=1)
    arm_events = (event & arm).sum(axis=1)
    fitted = (arm_events > 0) & (arm_events < events)
    log_hr = np.full(time.shape[0], np.nan)
    if fitted.any():
        if not fitted.all():  # no copies when every row is fitted, as is usual
            time, event, arm = time[fitted], event[fitted], arm[fitted]
        data = _ArmRiskSets(time, event, arm)
        beta, _, _, _, _, converged = _newton(data.loglik_score_info, data.m, 1)
        log_hr[np.flatnonzero(fitted)[converged]] = beta[converged, 0]
    return log_hr


def cox_fit_dataset(dataset, covariates=("arm",)):
    """Cox fit on a simulated Dataset with covariates drawn from its columns."""
    x = dataset.covariate_matrix(covariates)
    return cox_fit(dataset.observed_time, dataset.event, x, names=tuple(covariates))


def period_specific_cox(time, event, x, cutpoints, names=None):
    """Separate Cox fits on non-overlapping follow-up periods.

    Period [a, b) takes the subjects with observed time >= a (left truncation
    at the common entry a), counts only their events in [a, b), and censors
    the rest at b. Periods without events, or with no covariate variation
    among events, are reported as empty fits rather than errors.
    """
    time, event = _sample(time, event)
    x = _covariate_columns(x, time.size)
    cutpoints = check_cutpoints(cutpoints)

    fits, n_events, n_entered = [], [], []
    edges = (0.0,) + cutpoints
    for a, b in zip(edges[:-1], edges[1:]):
        entered = time >= a
        t_period = np.minimum(time[entered], b)
        e_period = event[entered] & (time[entered] < b)
        n_entered.append(int(entered.sum()))
        n_events.append(int(e_period.sum()))
        if n_events[-1] == 0:
            fits.append(None)
            continue
        try:
            fits.append(cox_fit(t_period, e_period, x[entered], names=names))
        except _ConstantCovariate:
            fits.append(None)
    return PeriodFit(cutpoints=cutpoints, fits=tuple(fits),
                     n_events=tuple(n_events), n_entered=tuple(n_entered))


def breslow_baseline(fit, time, event, x):
    """Cumulative baseline hazard with increments d_j / sum_risk exp(x beta).

    With all coefficients zero this is exactly the Nelson-Aalen estimate of
    the pooled sample. Requires a converged fit; given its coefficients
    nothing is maximised, so a covariate constant among the events is fine.
    """
    if not fit.converged:
        raise ValueError("breslow_baseline requires a converged Cox fit")
    order, _, start, d = _sort_and_group(time, event)
    x = _covariate_columns(x, order.size)
    if x.shape[1] != len(fit.names):
        raise ValueError("covariate columns do not match the fit")
    w_risk = _suffix_sum(np.exp(np.take(x, order, axis=0) @ fit.coef))[start]
    values = np.cumsum(d / w_risk)
    # Poisson-type, beta held fixed: d / w**2 where w**2 is a normal float;
    # elsewhere w**2 has lost digits or overflowed, and (d / w) / w
    # overflows only where the variance itself does
    with np.errstate(over="ignore"):
        square = w_risk**2
        normal = (square >= np.finfo(float).tiny) & (square < math.inf)
        increments = np.divide(d, square, out=np.empty(d.size), where=normal)
        lost = ~normal
        increments[lost] = d[lost] / w_risk[lost] / w_risk[lost]
    variance = np.cumsum(increments)
    times = np.asarray(time, dtype=float)[order[start]]
    return StepCurve(times=times, values=values, variance=variance,
                     n_risk=order.size - start, n_event=d, initial=0.0)


def _json_number(x):
    # degenerate fits can produce inf/nan; emit null rather than bad JSON
    x = float(x)
    return x if np.isfinite(x) else None


def fit_report(fit):
    """JSON-ready summary of the treatment coefficient of a Cox fit."""
    beta = fit.log_hr
    se = fit.log_hr_se
    with np.errstate(over="ignore"):
        report = {
            "beta": _json_number(beta),
            "se": _json_number(se),
            "hr": _json_number(np.exp(beta)),
            "hr_ci_lower": _json_number(np.exp(beta - Z_975 * se)),
            "hr_ci_upper": _json_number(np.exp(beta + Z_975 * se)),
            "iterations": fit.iterations,
            "converged": fit.converged,
            "n_events": fit.n_events,
        }
    if len(fit.names) > 1:
        report["covariates"] = {
            name: {"beta": _json_number(b), "se": _json_number(s)}
            for name, b, s in zip(fit.names, fit.coef, fit.se)
        }
    return report
