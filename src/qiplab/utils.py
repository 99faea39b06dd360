"""Seeded RNG streams, and the check every integer input is read through."""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from .errors import ValidationError


def checked_int(value, what: str, error: type[Exception] = ValidationError) -> int:
    """``value`` read through operator.index, else an ``error`` naming ``what``.

    A float or a numeric string is refused, not truncated or parsed, and so
    is a bool, though Python counts it as an int."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _path_word(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return checked_int(part, "stream path part")


def _uint32_words(value: int) -> list[int]:
    """`value`'s little-endian uint32 words, as many as it needs (0 is one
    word): the words numpy's SeedSequence splits a nonnegative int into."""
    if value < 0:
        raise ValidationError(f"stream path parts must be nonnegative, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def checked_seed(seed: int) -> int:
    """``seed`` as an int if it is one 64-bit word, in [0, 2**64); a seed
    outside is refused, not wrapped onto one inside it."""
    seed = checked_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derived_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Independent counter-based stream for (seed, path).

    The entropy is the words SeedSequence would make of the tuple (seed,
    *path words), built here as one uint32 array: an int part gives its
    little-endian uint32 words (see _uint32_words), a string part those of
    its 64-bit hash, so subsystems can tag their streams by name.
    The seed is one 64-bit word (see checked_seed).

    Distinct paths do not always give distinct words.  The words carry no
    part boundaries, and SeedSequence pads an entropy of fewer than 4 words
    with zeros, so (s, "x") and (s, "x", 0) draw the same stream.  Distinct
    streams are promised for the shipped path shapes only:
    (seed, "canonicalize" | "eb-check" | "seesaw", i), (seed, "subsample",
    r, trial) and the benchmark's (seed, "perfbench", workload, index), each
    int part below 2**32 by the budgets, so one word.  Each such path is at
    least 4 words, and SeedSequence does not pad sequences of different
    lengths together; two shapes whose sequences have the same length hold
    two different tag words at some aligned position (tests/test_utils.py
    checks this).  So per-trial and per-restart work can run in any order
    and still reproduce the exact same draws.
    """
    words = _uint32_words(checked_seed(seed))
    for part in path:
        words += _uint32_words(_path_word(part))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
