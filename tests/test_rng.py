import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmix.rng import (STREAM_CENSORING, STREAM_EVENT_PRIMARY, STREAM_STRATUM,
                         substream_uniforms)

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
IDS = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=20)
STREAMS = st.sampled_from([STREAM_STRATUM, STREAM_EVENT_PRIMARY, STREAM_CENSORING])


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=8), ids=IDS, stream=STREAMS)
def test_seed_vector_stacks_per_seed_draws(seeds, ids, stream):
    stacked = np.stack([substream_uniforms(seed, ids, stream) for seed in seeds])
    for given_seeds in (seeds, np.array(seeds, dtype=np.uint64)):
        draws = substream_uniforms(given_seeds, ids, stream)
        assert draws.shape == (len(seeds), len(ids))
        assert draws.dtype == stacked.dtype
        assert draws.tobytes() == stacked.tobytes()


def test_scalar_seed_keeps_one_dimension():
    assert substream_uniforms(7, np.arange(5), STREAM_STRATUM).shape == (5,)
    assert substream_uniforms([7], np.arange(5), STREAM_STRATUM).shape == (1, 5)


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_out_of_range_seed_in_vector_rejected(bad):
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        substream_uniforms([3, bad, 5], np.arange(4), STREAM_STRATUM)
