import numpy as np
import pytest
from hypothesis import strategies as st

from survmix import MixtureArm, TwoArmTruth


@pytest.fixture
def two_point_truth():
    """Two 50/50 strata; stratum-wise treatment rate ratio 0.5 in both."""
    return TwoArmTruth(
        control=MixtureArm(weights=(0.5, 0.5), rates=(0.1, 0.5)),
        research=MixtureArm(weights=(0.5, 0.5), rates=(0.05, 0.25)),
    )


@pytest.fixture
def single_rate_truth():
    """One stratum per arm: exact proportional hazards with ratio 0.5."""
    return TwoArmTruth(
        control=MixtureArm(weights=(1.0,), rates=(0.1,)),
        research=MixtureArm(weights=(1.0,), rates=(0.05,)),
    )


def brute_partial_loglik(beta, time, event, x):
    """Reference Breslow partial log likelihood via explicit risk-set loops."""
    time = np.asarray(time, dtype=float)
    x = np.asarray(x, dtype=float)
    ll = 0.0
    for i in range(time.size):
        if event[i]:
            at_risk = time >= time[i]
            ll += beta * x[i] - np.log(np.sum(np.exp(beta * x[at_risk])))
    return ll


@st.composite
def mixture_arms(draw, max_strata=4):
    k = draw(st.integers(min_value=1, max_value=max_strata))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = tuple(w / sum(raw) for w in raw)
    rates = tuple(draw(st.lists(st.floats(0.01, 5.0), min_size=k, max_size=k)))
    return MixtureArm(weights=weights, rates=rates)
