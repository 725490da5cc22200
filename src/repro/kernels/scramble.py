"""Vectorized 802.11a scrambler kernels (clause 18.3.5.5).

The 7-bit LFSR ``S(x) = x^7 + x^4 + 1`` is maximal-length: from any
non-zero seed its output is periodic with period 127.  So the per-bit
register walk only ever needs to run once per seed — :func:`prbs_sequence`
caches the 127-bit period per state and serves arbitrary lengths by tiling
it, turning the former O(n) Python loop into an O(1)-loop ``np.tile``.

:func:`prbs_sequence_reference` is the original bit-by-bit walk, kept as
the cache filler; the tests check the vectorized path against the
independent :func:`repro.kernels.oracle.scramble_oracle`.
:func:`prbs_state_table` precomputes the first seven output bits
of all 127 states, which lets scrambler-seed recovery from the SERVICE
field be a single vectorized table match instead of 127 sequence builds.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "prbs_sequence",
    "prbs_sequence_reference",
    "prbs_period",
    "prbs_state_table",
    "PRBS_PERIOD",
]

PRBS_PERIOD = 127


def _check_state(state: int) -> None:
    if not 0 < state < 128:
        raise ValueError("scrambler state must be a non-zero 7-bit value")


def prbs_sequence_reference(n: int, state: int = 0b1111111) -> np.ndarray:
    """Bit-by-bit LFSR walk — fills the :func:`prbs_period` cache.

    ``state`` packs the shift register x1..x7 with x7 in the MSB; each
    step outputs x7 XOR x4 and feeds it back into x1.
    """
    _check_state(state)
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        x7 = (state >> 6) & 1
        x4 = (state >> 3) & 1
        bit = x7 ^ x4
        state = ((state << 1) & 0b1111111) | bit
        out[i] = bit
    return out


@lru_cache(maxsize=128)
def prbs_period(state: int) -> np.ndarray:
    """The full 127-bit period starting from ``state`` (read-only, cached)."""
    _check_state(state)
    period = prbs_sequence_reference(PRBS_PERIOD, state)
    period.setflags(write=False)
    return period


def prbs_sequence(n: int, state: int = 0b1111111) -> np.ndarray:
    """``n`` bits of the LFSR sequence from ``state``, via the tiled period."""
    _check_state(state)
    if n < 0:
        raise ValueError("sequence length must be non-negative")
    period = prbs_period(state)
    if n <= PRBS_PERIOD:
        return period[:n].copy()
    reps = -(-n // PRBS_PERIOD)
    return np.tile(period, reps)[:n]


@lru_cache(maxsize=1)
def prbs_state_table() -> np.ndarray:
    """``(127, 7)`` uint8 — first 7 output bits of every state 1..127.

    Row ``i`` holds state ``i + 1``.  Seven consecutive outputs uniquely
    determine the state, so matching a scrambled SERVICE prefix against
    this table recovers the transmitter's seed in one vectorized compare.
    """
    table = np.empty((PRBS_PERIOD, 7), dtype=np.uint8)
    for state in range(1, 128):
        table[state - 1] = prbs_period(state)[:7]
    table.setflags(write=False)
    return table
