"""The vector draw of default_rng(seed).random(), held to numpy bit for bit."""

import numpy as np
import pytest

from bellclone._seeded_random import random_for_seeds

_EDGES = [0, 1, 2**31, 2**32 - 1]
# A sample of the whole 32-bit seed range, fixed by its own seed.
_SAMPLE = np.random.default_rng(20261018).integers(0, 2**32, size=20_000, dtype=np.uint64)


def _one_by_one(seeds):
    return np.array([np.random.default_rng(int(seed)).random() for seed in seeds])


@pytest.mark.parametrize("seeds", [_EDGES, _SAMPLE], ids=["edges", "sample"])
def test_vector_draw_equals_default_rng_bit_for_bit(seeds):
    drawn = random_for_seeds(seeds)
    assert drawn.dtype == np.float64
    assert drawn.tobytes() == _one_by_one(seeds).tobytes()
