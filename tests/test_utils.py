import itertools

import numpy as np
import pytest

from qiplab import cli, optimize
from qiplab.errors import LayoutError, ValidationError
from qiplab.optimize import OptimizerConfig, subsampling_experiment
from qiplab.protocol import chsh_protocol
from qiplab.qmath import PureState, RegisterLayout
from qiplab.utils import _path_word, _uint32_words, checked_seed, derived_rng

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


# The stream path shapes the package and its benchmark draw from: "seed" is
# one or two words, "int" one (every int part is below 2**32 by the budgets),
# and each tag string the two words of its hash.
SHIPPED_SHAPES = (
    ("seed", "canonicalize", "int"),
    ("seed", "eb-check", "int"),
    ("seed", "seesaw", "int"),
    ("seed", "subsample", "int", "int"),
) + tuple(("seed", "perfbench", workload, "int") for workload in ("sim-small", "sim-large", "solve"))


def word_templates(shape):
    """The entropy words of `shape` for a seed of one and of two words: a
    tag's words as they are, None for a word the path is free to choose."""
    tags = []
    for part in shape[1:]:
        tags += [None] if part == "int" else _uint32_words(_path_word(part))
    return [[None] * n_seed + tags for n_seed in (1, 2)]


def test_the_budgets_keep_every_int_path_part_to_one_word():
    for budget in (
        optimize.SEESAW_RESTART_BUDGET, optimize.SUBSAMPLE_TRIAL_BUDGET,
        optimize.SUBSAMPLE_DRAW_BUDGET, cli.CANONICALIZE_TRIAL_BUDGET, cli.EB_CHECK_COUNT_BUDGET,
    ):
        assert budget < 2**32


def test_shipped_stream_paths_never_share_their_entropy_words():
    for shape in SHIPPED_SHAPES:
        for tag in shape[1:]:
            if tag != "int":
                assert len(_uint32_words(_path_word(tag))) == 2, tag
    templates = [t for shape in SHIPPED_SHAPES for t in word_templates(shape)]
    # SeedSequence pads only entropy of fewer than 4 words
    assert min(len(t) for t in templates) >= 4
    for a, b in itertools.combinations(templates, 2):
        if len(a) == len(b):
            assert any(x is not None and y is not None and x != y for x, y in zip(a, b)), (a, b)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: RegisterLayout(("A",), (2.5,)), LayoutError),
        (lambda: RegisterLayout(("A",), ("3",)), LayoutError),
        (lambda: RegisterLayout(("A",), (True,)), LayoutError),
        (lambda: PureState.basis(RegisterLayout(("A",), (2,)), 1.7), LayoutError),
        (lambda: checked_seed(2.9), ValidationError),
        (lambda: checked_seed(True), ValidationError),
        (lambda: derived_rng(0, "x", 1.5), ValidationError),
        (lambda: OptimizerConfig(net_resolution=200.5), ValidationError),
        (lambda: OptimizerConfig(restarts=2.5), ValidationError),
        (lambda: OptimizerConfig(max_iters=10.0), ValidationError),
        (lambda: OptimizerConfig(seed=1.0), ValidationError),
        (lambda: subsampling_experiment(chsh_protocol()[1], 4, 0.1, 2.5, 0), ValidationError),
        (lambda: subsampling_experiment(chsh_protocol()[1], 4.5, 0.1, 3, 0), ValidationError),
    ],
    ids=[
        "layout-float", "layout-string", "layout-bool", "basis-index", "seed-float", "seed-bool",
        "path-part", "net-resolution", "restarts", "max-iters", "config-seed",
        "subsample-trials", "subsample-r",
    ],
)
def test_integer_inputs_refuse_what_is_not_an_integer(make, error):
    with pytest.raises(error, match="must be an integer"):
        make()


def test_integer_inputs_take_numpy_integers_as_ints():
    layout = RegisterLayout(("A",), (np.int64(3),))
    assert layout.dims == (3,) and type(layout.dims[0]) is int
    assert checked_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert type(OptimizerConfig(restarts=np.int32(4)).restarts) is int
