"""Counter-based random streams for reproducible, order-independent sampling.

Every draw is a pure function of (seed, individual id, stream tag), so datasets
are identical no matter how generation is scheduled or parallelised. The mixing
function is SplitMix64 (Steele, Lea & Flood 2014), applied as a keyed hash over
the (seed, id, stream) triple.
"""

import operator

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Named substreams. One individual consumes at most one draw per stream.
STREAM_STRATUM = 0
STREAM_EVENT_PRIMARY = 1    # T(0) draw; shared draw under comonotone coupling
STREAM_EVENT_SECONDARY = 2  # T(1) draw under independent coupling
STREAM_CENSORING = 3
STREAM_REPLICATE = 4        # replicate seed derivation, ids = replicate index


def _mix64(z):
    """SplitMix64 finalizer, vectorised over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def check_seed(seed):
    """The seed as a uint64; it must be an integer in [0, 2**64)."""
    try:
        # bool has an index, but True is no seed
        valid = not isinstance(seed, bool) and 0 <= operator.index(seed) < 2**64
    except TypeError:  # not an integer: a float, even a whole one, or a string
        valid = False
    if not valid:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.uint64(seed)


def _keyed_bits(seed, ids, stream, what):
    """The SplitMix64 hash of every (seed, id, stream), as uint64; `seed` and
    `ids` broadcast as in substream_uniforms. The ids, which a ValueError
    calls `what`, must be integer and >= 0."""
    if np.ndim(seed) == 0:
        key = check_seed(seed)
    else:
        key = np.array([check_seed(s) for s in seed], dtype=np.uint64)
    ids = np.asarray(ids)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0):
        raise ValueError(f"{what} must be integer and >= 0, got {ids}")
    ids = ids.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        z = _mix64(key + _GAMMA * np.uint64(stream + 1))
        return _mix64((ids + np.uint64(1)) * _GAMMA + z.reshape(z.shape + (1,) * ids.ndim))


def substream_uniforms(seed, ids, stream):
    """Uniforms in the open interval (0, 1), one per id, for a named substream.

    `seed` is one seed or a 1-d sequence of seeds; the result has one row of
    draws per seed, each row equal to the call with that seed alone. The
    value at a given (seed, id, stream) never depends on which other seeds
    and ids are being generated alongside it.
    """
    bits = _keyed_bits(seed, ids, stream, "ids")
    # 53 high bits, offset by half an ulp: strictly inside (0, 1)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def derive_seed(seed, index):
    """Child seed of replicate `index`: the integer draw of STREAM_REPLICATE.

    A 1-d array of indices gives the child seeds as a uint64 array, each
    equal to the call with that index alone.
    """
    bits = _keyed_bits(seed, index, STREAM_REPLICATE, "index")
    return bits if np.ndim(index) else int(bits)
