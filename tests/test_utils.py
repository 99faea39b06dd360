import numpy as np
import pytest

from qiplab.errors import ValidationError
from qiplab.utils import _path_word, derived_rng

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1)
PATHS = (
    (), (0,), (3,), ("canonicalize", 0), ("perfbench", "sim-large", 15), (2**32, "x"), (2**40, 7),
)


def tuple_seeded_rng(seed, *path):
    """The stream as numpy seeds it from the tuple (seed, *path words)."""
    entropy = (seed,) + tuple(_path_word(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_derived_rng_draws_the_stream_numpy_seeds_from_the_tuple(seed, path):
    want = tuple_seeded_rng(seed, *path).integers(2**62, size=8)
    assert derived_rng(seed, *path).integers(2**62, size=8).tolist() == want.tolist()


def test_derived_rng_refuses_what_numpy_would():
    with pytest.raises(ValidationError, match="seed"):
        derived_rng(2**64)
    with pytest.raises(ValidationError, match="nonnegative"):
        derived_rng(0, -1)
