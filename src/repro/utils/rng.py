"""Reproducible randomness helpers.

Every stochastic component in the library takes a ``numpy.random.Generator``
explicitly; these helpers centralise construction so experiments are
deterministic given a seed.

Where a run names thousands of streams (``repro.net`` names one per
purpose and owner), a numpy Generator per stream costs more than the
few draws most of them serve.  :class:`SubStreams` names them without
one: owner ``k``'s :class:`OwnerStream` is the PCG64 stream that
``named_rng`` would seed, advanced by ``k * 2**64`` draws, held as
Python integers, and its ``random()`` / ``integers()`` are numpy's
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

__all__ = ["make_rng", "named_rng", "OwnerStream", "SubStreams"]

RngLike = Union[int, np.random.Generator, None]

#: PCG64's LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_2_POW_M53 = 2.0 ** -53

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


def named_rng(root: np.random.SeedSequence, *key: int) -> np.random.Generator:
    """The stream named ``key`` under ``root``.

    ``key`` (non-negative integers) extends ``root``'s spawn key: the
    stream is ``default_rng(SeedSequence(root.entropy, spawn_key=
    root.spawn_key + key))``.

    Pure in ``(root, key)``: unlike ``SeedSequence.spawn`` it does not
    mutate ``root``, so streams may be asked for in any order, any
    number of times, and each is what it is named, not when it was
    asked for.
    """
    return np.random.default_rng(np.random.SeedSequence(
        root.entropy, spawn_key=tuple(root.spawn_key) + key))


def _jump_terms(steps_log2: int):
    """``(M**n, sum(M**i for i < n))`` mod 2**128 for ``n = 2**steps_log2``:
    ``n`` LCG steps map a state ``s`` to ``M**n * s + sum * inc``."""
    power, total = _MULT, 1
    for _ in range(steps_log2):
        total = total * (1 + power) & _MASK128
        power = power * power & _MASK128
    return power, total


# M = 1 mod 4, so M**(2**64) = 1 + X with 2**66 | X, and X**2 = 0 mod
# 2**128.  Jumping k * 2**64 steps is then multiplying by 1 + k*X and
# adding G * (k + X * k*(k-1)/2) * inc.  G, a sum of 2**64 powers of M,
# is a multiple of 2**64, so X * G = 0 mod 2**128 and the jump is
# s -> s + k * (X*s + G*inc): linear in k.
_POW, _G = _jump_terms(64)
_X = _POW - 1


class SubStreams:
    """The owner sub-streams of the stream ``named_rng(root, *key)``.

    Owner ``k`` (an integer in ``[0, 2**64)``) is that PCG64 stream
    advanced by ``k * 2**64`` draws, so no two owners' draws overlap.
    The base state comes from one ``SeedSequence.generate_state`` call;
    an owner's starting state is a closed form in ``k`` (one big-integer
    multiply-add; an owner stream costs ~1 µs), not ``PCG64.advance``, and
    builds no numpy object.
    """

    __slots__ = ("inc", "_state", "_step")

    def __init__(self, root: np.random.SeedSequence, *key: int) -> None:
        hi, lo, inc_hi, inc_lo = np.random.SeedSequence(
            root.entropy, spawn_key=tuple(root.spawn_key) + key,
        ).generate_state(4, np.uint64).tolist()
        # numpy's pcg64_set_seed: inc = 2*initseq + 1, then two steps
        # around adding the seed.
        inc = self.inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        state = self._state = (((hi << 64) | lo) + inc) * _MULT + inc \
            & _MASK128
        self._step = (_X * state + _G * inc) & _MASK128

    def state(self, owner: int) -> int:
        """Owner ``owner``'s 128-bit starting state."""
        if not 0 <= owner < _OWNER_SPACING:
            raise ValueError(f"owner must be in [0, 2**64), got {owner!r}")
        return (self._state + owner * self._step) & _MASK128

    def __getitem__(self, owner: int) -> "OwnerStream":
        return OwnerStream(self.state(owner), self.inc)

    def numpy_state(self, owner: int) -> Dict:
        """Owner ``owner``'s starting state as a numpy PCG64 ``state`` dict,
        for draws only numpy makes (e.g. ``exponential``)."""
        return {"bit_generator": "PCG64",
                "state": {"state": self.state(owner), "inc": self.inc},
                "has_uint32": 0, "uinteger": 0}


class OwnerStream:
    """One PCG64 stream as Python integers, drawn like numpy's Generator.

    ``random()`` and ``integers(low, high=None)`` return what
    ``Generator(PCG64)`` in the same state returns (as Python numbers),
    including the buffered upper half of a 64-bit draw that numpy keeps
    for its next 32-bit draw.  ``integers`` takes ranges below ``2**32``.
    """

    __slots__ = ("state", "inc", "_half")

    def __init__(self, state: int, inc: int) -> None:
        self.state = state
        self.inc = inc
        self._half: Optional[int] = None

    def _next64(self) -> int:
        """numpy's ``pcg64_random_r``: step, then the XSL-RR output."""
        state = self.state = (self.state * _MULT + self.inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in ``[0, 1)``: the top 53 bits of a 64-bit draw."""
        # _next64 inlined: this is the hot draw.
        state = self.state = (self.state * _MULT + self.inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((((word >> rot) | (word << (64 - rot))) & _MASK64) >> 11) \
            * _2_POW_M53

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An integer in ``[low, high)`` (``[0, low)`` without ``high``):
        Lemire's method on 32-bit draws, none when one value is possible."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span <= 0:
            raise ValueError(f"high <= low: [{low}, {high})")
        if span == 1:
            return low
        if span > _MASK32:
            raise ValueError(f"range {span} is not below 2**32")
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)
