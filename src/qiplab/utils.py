"""Seeded RNG streams."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError


def _path_word(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return int(part)


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
    if not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def derived_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Independent counter-based stream for (seed, path).

    Streams for distinct paths never overlap, so per-trial and per-restart
    work can run in any order and still reproduce the exact same draws.
    String path parts are hashed, so subsystems can tag their streams by
    name.  The seed is one 64-bit word (see checked_seed).  The entropy is
    the words SeedSequence would make of the tuple (seed, *path words), built
    here as one uint32 array.
    """
    words = _uint32_words(checked_seed(seed))
    for part in path:
        words += _uint32_words(_path_word(part))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
