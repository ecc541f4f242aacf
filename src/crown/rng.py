"""Counter-based random streams with per-sample substreams.

Every Monte-Carlo driver derives one Philox stream per sample from the pair
(run seed, sample index), so batch results are identical no matter how samples
are chunked.  A substream is Philox keyed by that pair, at counter 0; it reads
no OS entropy.
"""

from __future__ import annotations

import functools

import numpy as np

# index namespaces for auxiliary draws inside one run
NS_TUBE = 1 << 32
NS_AUX = 1 << 33


@functools.cache
def _philox_key() -> type:
    """The seed-sequence type that hands Philox its 128-bit key unchanged.

    Philox(key=...) builds, and then ignores, a SeedSequence() that reads OS
    entropy; a counter-based generator needs nothing but its key.  The type is
    built on first use, so that importing crown does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for exactly two uint64 words; any other request is refused
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is exactly two uint64 words")
            return self.key

    return PhiloxKey


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index)."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    key = np.array([seed, int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key()(key)))
