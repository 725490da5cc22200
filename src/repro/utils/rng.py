"""Reproducible randomness helpers.

Every stochastic component in the library takes a ``numpy.random.Generator``
explicitly; these helpers centralise construction so experiments are
deterministic given a seed.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["make_rng", "named_rng"]

RngLike = Union[int, np.random.Generator, None]

#: Owners of one name are sub-streams this many draws apart.
_OWNER_SPACING = 1 << 64


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a Generator.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    Generator (returned unchanged so callers can thread one RNG through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def named_rng(root: np.random.SeedSequence, *key: int,
              owner: Optional[int] = None) -> np.random.Generator:
    """The stream named ``key`` (and ``owner``) under ``root``.

    ``key`` (non-negative integers) extends ``root``'s spawn key: the
    stream is ``default_rng(SeedSequence(root.entropy, spawn_key=
    root.spawn_key + key))``.  ``owner`` (an integer in ``[0, 2**64)``)
    names one of that stream's sub-streams: the same PCG64 sequence
    advanced by ``owner * 2**64`` draws, so no two owners' draws
    overlap.  An owner's generator costs a few µs to build against
    ~25 µs for a seeded one, which matters where a run names thousands
    of owners.

    Pure in ``(root, key, owner)``: unlike ``SeedSequence.spawn`` it does
    not mutate ``root``, so streams may be asked for in any order, any
    number of times, and each is what it is named, not when it was
    asked for.
    """
    spawn_key = tuple(root.spawn_key) + key
    if owner is None:
        return np.random.default_rng(
            np.random.SeedSequence(root.entropy, spawn_key=spawn_key))
    if not 0 <= owner < _OWNER_SPACING:
        raise ValueError(f"owner must be in [0, 2**64), got {owner!r}")
    entropy = root.entropy
    if isinstance(entropy, list):
        entropy = tuple(entropy)
    bits = np.random.PCG64(_seed_words(entropy, spawn_key))
    bits.advance(owner * _OWNER_SPACING)
    return np.random.Generator(bits)


class _SeedWords(ISeedSequence):
    """Hands a PCG64 the words a SeedSequence drew for it once."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=64)
def _seed_words(entropy, spawn_key) -> _SeedWords:
    """The seed words of the PCG64 this SeedSequence would seed."""
    return _SeedWords(np.random.SeedSequence(
        entropy, spawn_key=spawn_key).generate_state(4, np.uint64))
