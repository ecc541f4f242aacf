"""Counter-based random streams with per-sample substreams.

Every Monte-Carlo driver derives one Philox stream per sample from the pair
(run seed, sample index), so batch results are identical no matter how samples
are chunked.
"""

from __future__ import annotations

import numpy as np

# index namespaces for auxiliary draws inside one run
NS_TUBE = 1 << 32
NS_AUX = 1 << 33


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index)."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    key = np.array([seed, int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
