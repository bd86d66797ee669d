"""The vector draw of default_rng(seed).random(), held to numpy bit for bit."""

import numpy as np
import pytest

from bellclone import statevector
from bellclone._seeded_random import random_for_seeds
from bellclone.statevector import _VECTOR_CROSSOVER, _draw

_EDGES = [0, 1, 2**31, 2**32 - 1]
# A sample of the whole 32-bit seed range, fixed by its own seed.
_SAMPLE = np.random.default_rng(20261018).integers(0, 2**32, size=20_000, dtype=np.uint64)
# An uneven marginal over four outcomes, so every outcome index can show up.
_MARGINAL = np.array([0.1, 0.2, 0.3, 0.4])


def _one_by_one(seeds):
    return np.array([np.random.default_rng(int(seed)).random() for seed in seeds])


@pytest.mark.parametrize("seeds", [_EDGES, _SAMPLE], ids=["edges", "sample"])
def test_vector_draw_equals_default_rng_bit_for_bit(seeds):
    drawn = random_for_seeds(seeds)
    assert drawn.dtype == np.float64
    assert drawn.tobytes() == _one_by_one(seeds).tobytes()


@pytest.mark.parametrize(
    "seeds",
    [
        [7],
        range(100, 100 + _VECTOR_CROSSOVER),
        range(100, 101 + _VECTOR_CROSSOVER),
        range(2**32 - 20, 2**32 + 20),
        [*range(40), 2**64 + 3],
    ],
    ids=["one", "crossover", "crossover+1", "around-2**32", "beyond-int64"],
)
def test_draw_gives_the_loop_outcomes_on_both_sides_of_the_crossover(monkeypatch, seeds):
    calls = []

    def spy(batch):
        calls.append(len(batch))
        return random_for_seeds(batch)

    monkeypatch.setattr(statevector, "random_for_seeds", spy)
    cdf = np.cumsum(_MARGINAL)
    cdf /= cdf[-1]
    expected = cdf.searchsorted(_one_by_one(seeds), side="right")
    assert _draw(_MARGINAL, seeds).tolist() == expected.tolist()
    # Only a batch above the crossover with every seed below 2**32 takes the vector path.
    vector = len(seeds) > _VECTOR_CROSSOVER and max(seeds) < 2**32
    assert calls == ([len(seeds)] if vector else [])


@pytest.mark.parametrize(
    "seeds",
    [[-1, *range(100)], np.arange(-50, 50), [*range(100), -(2**70)], [-1, 2**64]],
    ids=["list", "int64-array", "beyond-int64", "short"],
)
def test_negative_seed_in_a_batch_raises_default_rngs_error(seeds):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as draw_error:
        _draw(_MARGINAL, seeds)
    assert type(draw_error.value) is type(numpy_error.value)
    assert str(draw_error.value) == str(numpy_error.value)
