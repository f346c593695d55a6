import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmix.rng import (STREAM_CENSORING, STREAM_EVENT_PRIMARY,
                         STREAM_EVENT_SECONDARY, STREAM_STRATUM, check_seed,
                         derive_seed, substream_uniforms)

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


@pytest.mark.parametrize("bad", [True, False, np.True_])
def test_bool_seed_rejected(bad):
    # True passed as the seed 1
    with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, "
                                         f"got {bad}$"):
        check_seed(bad)
    assert check_seed(np.int64(1)) == 1


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_out_of_range_seed_in_vector_rejected(bad):
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        substream_uniforms([3, bad, 5], np.arange(4), STREAM_STRATUM)


@pytest.mark.parametrize("function, ids, named", [
    (substream_uniforms, [0.5, 1.0], "ids"),
    (substream_uniforms, np.array([0, -1]), "ids"),
    (derive_seed, 1.5, "index"),
    (derive_seed, -1, "index"),
    (derive_seed, np.array([3, -2]), "index"),
    (derive_seed, 2**64, "index"),
], ids=["float ids", "negative id", "float index", "negative index",
        "negative index in an array", "index past uint64"])
def test_ids_must_be_integers_at_least_zero(function, ids, named):
    # neither truncated (1.5 drew id 1) nor left to numpy's OverflowError
    args = (7, ids, STREAM_STRATUM) if function is substream_uniforms else (7, ids)
    with pytest.raises(ValueError, match=f"^{named} must be integer and >= 0, got "):
        function(*args)


# exact draws of the stream layout: any change to the keyed hash moves them
PINNED_UNIFORMS = [
    (0, [0, 1, 2], STREAM_STRATUM, [0.6524484863740323, 0.7012121095215254,
                                    0.38712414097578557]),
    (20260808, [0, 999, 2**63 - 1], STREAM_EVENT_PRIMARY,
     [0.580604348614963, 0.2879866363045179, 0.20477631337244878]),
    (2**64 - 1, [5], STREAM_EVENT_SECONDARY, [0.5606329478963432]),
    (11, [7, 3], STREAM_CENSORING, [0.7518320228685422, 0.6225743377524422]),
]
PINNED_CHILD_SEEDS = [(0, 0, 5085904676777434204),
                      (20260808, 0, 484818247301933265),
                      (20260808, 1, 9276192003397960699),
                      (20260808, 499, 8540393816380370624),
                      (2**64 - 1, 3, 14615687685483772765)]


@pytest.mark.parametrize("seed, ids, stream, expected", PINNED_UNIFORMS)
def test_pinned_uniforms(seed, ids, stream, expected):
    assert substream_uniforms(seed, ids, stream).tolist() == expected


@pytest.mark.parametrize("seed, index, expected", PINNED_CHILD_SEEDS)
def test_pinned_child_seeds(seed, index, expected):
    assert derive_seed(seed, index) == expected


@pytest.mark.parametrize("seed", [0, 20260808, 2**64 - 1])
def test_child_seed_array_equals_scalar_calls(seed):
    indices = np.array([0, 1, 499, 2**32, 2**32 + 7, 2**63 - 1], dtype=np.int64)
    children = derive_seed(seed, indices)
    assert children.dtype == np.uint64 and children.shape == indices.shape
    assert children.tolist() == [derive_seed(seed, int(i)) for i in indices]
    assert type(derive_seed(seed, 2**32)) is int
    assert derive_seed(seed, np.arange(500)).tolist() == \
        [derive_seed(seed, i) for i in range(500)]
