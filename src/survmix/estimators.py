"""Nonparametric and semiparametric estimation from right-censored samples.

Kaplan-Meier and Nelson-Aalen step estimators, Cox partial-likelihood
regression by safeguarded Newton-Raphson with the Breslow tie correction,
period-specific Cox fits on left-truncated risk sets, and the Breslow
cumulative baseline hazard.
"""

from dataclasses import dataclass

import numpy as np

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
        """Evaluate the step function at scalar or array times."""
        t = np.asarray(t, dtype=float)
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


class _ConstantCovariate(ValueError):
    """A covariate is constant among the events: no partial-likelihood maximum."""


def check_cutpoints(cutpoints):
    """Period boundaries as a tuple of floats: non-empty, > 0, strictly increasing."""
    cutpoints = tuple(float(c) for c in cutpoints)
    if len(cutpoints) == 0 or any(c <= 0 for c in cutpoints) \
            or any(b <= a for a, b in zip(cutpoints, cutpoints[1:])):
        raise ValueError("cutpoints must be strictly increasing and > 0")
    return cutpoints


class _RiskSets:
    """Samples sorted once by time and grouped at their distinct event times.

    `time` and `event` hold one sample, or a stack of equally sized samples
    with one per row. The group arrays run over the samples in row order:
    group j belongs to sample row[j], and its risk set is every sorted row of
    that sample from start[j] on, where start indexes the flattened sample.
    """

    _NDIM = 1              # one sample; a subclass may take a stack
    _SORT_KIND = "stable"  # the Cox sums add tied rows in input order

    def __init__(self, time, event):
        time = np.asarray(time, dtype=float)
        event = np.asarray(event, dtype=bool)
        if time.ndim != self._NDIM or time.size == 0 or time.shape != event.shape:
            raise ValueError(
                f"need matching non-empty {self._NDIM}-d time and event arrays")
        if not np.all(time > 0.0):
            raise ValueError("all observation times must be > 0")
        if not event.any(axis=-1).all():
            raise ValueError("sample contains no events")
        self.order = np.argsort(time, axis=-1, kind=self._SORT_KIND)
        self.time = np.take_along_axis(time, self.order, axis=-1)
        self.event = np.take_along_axis(event, self.order, axis=-1)
        self.n = time.shape[-1]
        # first sorted row of each distinct time, then of each with an event;
        # each sample starts a new time
        flat = self.time.ravel()
        new_time = np.r_[True, flat[1:] != flat[:-1]]
        new_time[::self.n] = True
        first = np.flatnonzero(new_time)
        d = np.add.reduceat(self.event.ravel().astype(np.int64), first)
        self.start = first[d > 0]
        self.row, offset = np.divmod(self.start, self.n)
        self.times = flat[self.start]
        self.d = d[d > 0]
        self.n_risk = self.n - offset  # sorted ascending: everyone later is at risk


def kaplan_meier(time, event):
    """Product-limit survival estimate with Greenwood variance."""
    rs = _RiskSets(time, event)
    n_risk, d = rs.n_risk, rs.d
    values = np.cumprod(1.0 - d / n_risk)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Greenwood's formula; undefined (nan) once the estimate hits zero
        variance = values**2 * np.cumsum(d / (n_risk * (n_risk - d)))
    return StepCurve(rs.times, values, variance, n_risk, d, initial=1.0)


def nelson_aalen(time, event):
    """Cumulative-hazard estimate with increments d/n and Poisson variance."""
    rs = _RiskSets(time, event)
    n_risk, d = rs.n_risk, rs.d
    values = np.cumsum(d / n_risk)
    variance = np.cumsum(d / n_risk.astype(float) ** 2)
    return StepCurve(rs.times, values, variance, n_risk, d, initial=0.0)


def _suffix_sum(a):
    """sum a[i:] for every i, by recursive doubling.

    Rounding error grows with log2(n) rather than n, which keeps the Cox
    score resolvable below its 1e-8 tolerance even for ~1e6 rows.
    """
    out = np.array(a, dtype=float, copy=True)
    n = out.shape[0]
    shift = 1
    while shift < n:
        out[: n - shift] += out[shift:]
        shift *= 2
    return out


class _CoxData(_RiskSets):
    """Risk sets plus the sorted covariates shared by the Cox computations."""

    def __init__(self, time, event, x):
        super().__init__(time, event)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != self.n:
            raise ValueError("covariate rows must match the number of observations")
        self.x = x[self.order]
        self.p = x.shape[1]
        for j in range(self.p):
            if np.ptp(self.x[self.event, j]) == 0.0:
                raise _ConstantCovariate(
                    f"covariate {j} is constant among events; "
                    "the partial likelihood has no maximum"
                )
        # per-event-time sum of covariates over the events; the censored rows
        # up to the next event time add exact zeros
        ex = np.where(self.event[:, None], self.x, 0.0)
        self.event_x_sum = np.add.reduceat(ex, self.start, axis=0)
        self.n_events = int(self.d.sum())

    def loglik_score_info(self, beta):
        """Breslow partial log likelihood and its first two derivatives."""
        eta = self.x @ beta
        w = np.exp(eta)
        xw = self.x * w[:, None]
        xxw = xw[:, :, None] * self.x[:, None, :]
        # suffix sums give risk-set aggregates at the head row of each group
        w_risk = _suffix_sum(w)[self.start]
        xw_risk = _suffix_sum(xw)[self.start]
        xxw_risk = _suffix_sum(xxw)[self.start]

        xbar = xw_risk / w_risk[:, None]
        ll = float(np.sum(self.event_x_sum @ beta) - np.sum(self.d * np.log(w_risk)))
        score = np.sum(self.event_x_sum - self.d[:, None] * xbar, axis=0)
        info = np.einsum("j,jkl->kl", self.d.astype(float),
                         xxw_risk / w_risk[:, None, None]
                         - xbar[:, :, None] * xbar[:, None, :])
        return ll, score, info

    def baseline_increments(self, beta):
        """Breslow increments d_j / sum_{risk} exp(x beta) at each event time."""
        w = np.exp(self.x @ beta)
        w_risk = _suffix_sum(w)[self.start]
        return self.d / w_risk, w_risk


class _ArmRiskSets(_RiskSets):
    """Risk sets of a stack of samples whose one covariate is the 0/1 arm.

    The risk-set sum of exp(beta * arm) at an event time is n0 + exp(beta) n1
    over the exact integer counts at risk in each arm, so one evaluation of
    the partial likelihood costs one pass over the event times. The counts
    are padded to one row of g event times per sample; a pad has no deaths
    and adds exact zeros.
    """

    _NDIM = 2
    _SORT_KIND = "quicksort"  # no count here depends on the order of ties

    def __init__(self, time, event, arm):
        super().__init__(time, event)
        arm = np.take_along_axis(np.broadcast_to(arm, self.order.shape) == 1,
                                 self.order, axis=-1)
        self.m = arm.shape[0]
        self.event_arm_sum = (self.event & arm).sum(axis=1)
        at_risk_1 = np.cumsum(arm[:, ::-1], axis=1)[:, ::-1].ravel()[self.start]
        groups = np.bincount(self.row, minlength=self.m)
        g = groups.max()
        # flat position of each event time in its sample's padded row
        pad = np.arange(self.row.size) + np.repeat(
            np.arange(self.m) * g - np.cumsum(groups) + groups, groups)
        self.n0 = np.ones((self.m, g))
        self.n1, self.deaths = np.zeros((2, self.m, g))
        self.n0.ravel()[pad] = self.n_risk - at_risk_1
        self.n1.ravel()[pad] = at_risk_1
        self.deaths.ravel()[pad] = self.d

    def loglik_score_info(self, beta):
        """Breslow partial log likelihood, score and information of every
        sample at the (m, 1) coefficients `beta`."""
        e_n1 = np.exp(beta) * self.n1
        w_risk = self.n0 + e_n1
        xbar = e_n1 / w_risk
        ll = beta[:, 0] * self.event_arm_sum \
            - np.einsum("ij,ij->i", self.deaths, np.log(w_risk))
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


def _newton(evaluate, m, p, max_iterations, score_tol):
    """Safeguarded Newton-Raphson on m independent log likelihoods at once.

    evaluate(beta) returns the log likelihood (m,), score (m, p) and
    information (m, p, p) at the (m, p) coefficients `beta`. Every row starts
    at 0 and moves on its own: a step is halved while it would decrease the
    row's log likelihood, and the row stops once max|score| < score_tol, at
    max_iterations, at a singular information, when |beta| passes
    DIVERGENCE_BOUND or when it stalls. Returns beta, ll, score, info,
    iterations and converged, one entry per row.
    """
    beta = np.zeros((m, p))
    ll, score, info = evaluate(beta)
    iterations = np.zeros(m, dtype=np.int64)
    diverged = np.zeros(m, dtype=bool)
    stopped = np.zeros(m, dtype=bool)
    while True:
        active = ~stopped & (iterations < max_iterations) \
            & (np.max(np.abs(score), axis=1) >= score_tol)
        if not active.any():
            break
        iterations += active
        delta, singular = _newton_steps(info, score, active)
        diverged |= singular
        stopped |= singular
        active &= ~singular
        # halve steps that decrease the log likelihood by more than its own
        # floating-point evaluation noise; exact comparison would flip on
        # noise once the true decrement is microscopic
        ll_slack = 1e-12 * (1.0 + np.abs(ll))
        step = np.ones(m)
        candidate, ll_new, score_new, info_new = beta, ll, score, info
        halving = active
        while halving.any():
            candidate = np.where(halving[:, None], beta + step[:, None] * delta, candidate)
            ll_try, score_try, info_try = evaluate(candidate)
            ll_new = np.where(halving, ll_try, ll_new)
            score_new = np.where(halving[:, None], score_try, score_new)
            info_new = np.where(halving[:, None, None], info_try, info_new)
            halving = halving & (ll_try < ll - ll_slack) & (step > 2.0**-20)
            step = np.where(halving, 0.5 * step, step)
        moved = np.max(np.abs(candidate - beta), axis=1)
        beta, ll, score, info = candidate, ll_new, score_new, info_new
        size = np.max(np.abs(beta), axis=1)
        diverged |= active & (size > DIVERGENCE_BOUND)
        # stalled at numerical precision; the score decides
        stopped |= active & ((size > DIVERGENCE_BOUND) | (moved < 1e-14 * (1.0 + size)))
    converged = ~diverged & (np.max(np.abs(score), axis=1) < score_tol)
    return beta, ll, score, info, iterations, converged


def cox_fit(time, event, x, names=None, max_iterations=MAX_ITERATIONS,
            score_tol=SCORE_TOL):
    """Maximise the Cox partial likelihood (Breslow ties) by Newton-Raphson.

    Starts at beta = 0; a step is halved while it would decrease the log
    partial likelihood. Convergence means max|score| < score_tol. A
    trajectory escaping |beta| > 15 is flagged converged=False (monotone
    likelihood / separation), never raised.
    """
    data = _CoxData(time, event, x)
    if names is None:
        names = tuple(f"x{j}" for j in range(data.p))
    names = tuple(names)
    if len(names) != data.p:
        raise ValueError("one covariate name per column required")

    def evaluate(beta):
        ll, score, info = data.loglik_score_info(beta[0])
        return np.array([ll]), score[None], info[None]

    beta, ll, score, info, iterations, converged = _newton(
        evaluate, 1, data.p, max_iterations, score_tol)
    info = info[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            covariance = np.linalg.inv(info)
            se = np.sqrt(np.diag(covariance))
        except np.linalg.LinAlgError:
            se = np.full(data.p, np.inf)
    return CoxFit(names=names, coef=beta[0], se=se, iterations=int(iterations[0]),
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
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    arm = np.broadcast_to(arm, time.shape)
    events = event.sum(axis=1)
    arm_events = (event & (arm == 1)).sum(axis=1)
    fitted = (arm_events > 0) & (arm_events < events)
    log_hr = np.full(time.shape[0], np.nan)
    if fitted.any():
        data = _ArmRiskSets(time[fitted], event[fitted], arm[fitted])
        beta, _, _, _, _, converged = _newton(
            data.loglik_score_info, data.m, 1, MAX_ITERATIONS, SCORE_TOL)
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
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
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
    the pooled sample. Requires a converged fit.
    """
    if not fit.converged:
        raise ValueError("breslow_baseline requires a converged Cox fit")
    data = _CoxData(time, event, x)
    if data.p != len(fit.names):
        raise ValueError("covariate columns do not match the fit")
    increments, w_risk = data.baseline_increments(fit.coef)
    values = np.cumsum(increments)
    variance = np.cumsum(data.d / w_risk**2)  # Poisson-type, beta held fixed
    return StepCurve(times=data.times, values=values, variance=variance,
                     n_risk=data.n_risk, n_event=data.d, initial=0.0)


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
