"""802.11a data scrambler (clause 18.3.5.5).

A 7-bit LFSR with polynomial S(x) = x^7 + x^4 + 1 generates a length-127
pseudo-random sequence that is XORed onto the data bits.  The same block
descrambles (XOR is an involution).  The sequence generated from the
all-ones state also serves as the *pilot polarity sequence* p_n used by
the OFDM modulator.

The per-bit register walk lives in :mod:`repro.kernels.scramble`; because
the LFSR is maximal-length, every sequence is a tiling of a cached 127-bit
period, so scrambling is a single vectorized XOR.  The tests check it
against the bit-at-a-time LFSR of :func:`repro.kernels.oracle.scramble_oracle`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.scramble import prbs_sequence, prbs_state_table

__all__ = [
    "Scrambler",
    "scrambler_sequence",
    "pilot_polarity_sequence",
]


def scrambler_sequence(n: int, state: int = 0b1111111) -> np.ndarray:
    """Generate ``n`` bits of the LFSR sequence starting from ``state``.

    ``state`` packs the shift register x1..x7 with x7 in the MSB; the
    output bit of each step is x7 XOR x4 and is also fed back into x1.
    Served from the cached 127-bit period (the LFSR is maximal-length).
    """
    return prbs_sequence(n, state)


class Scrambler:
    """Stateless-per-call scrambler/descrambler.

    The 802.11a transmitter initialises the register to a pseudo-random
    non-zero state for every PPDU; the receiver recovers it from the first
    7 (zero) SERVICE bits.  For a simulator we keep the classic default
    all-ones seed but accept any non-zero state.
    """

    def __init__(self, state: int = 0b1011101):
        if not 0 < state < 128:
            raise ValueError("scrambler state must be a non-zero 7-bit value")
        self.state = state

    def scramble(self, bits: np.ndarray) -> np.ndarray:
        """XOR ``bits`` with the LFSR stream (also descrambles)."""
        bits = np.asarray(bits, dtype=np.uint8)
        seq = scrambler_sequence(bits.size, self.state)
        return bits ^ seq

    @staticmethod
    def recover_state(scrambled_service_prefix: np.ndarray) -> int:
        """Recover the initial state from the first 7 scrambled SERVICE bits.

        The SERVICE field starts with 7 zero bits, so the scrambled bits
        *are* the LFSR output; 7 consecutive outputs determine the state.
        One vectorized match against the precomputed 127x7 state table
        replaces the old per-state brute-force sequence builds.
        """
        bits = np.asarray(scrambled_service_prefix, dtype=np.uint8)
        if bits.size < 7:
            raise ValueError("need at least 7 scrambled service bits")
        matches = np.all(prbs_state_table() == bits[:7], axis=1)
        hit = np.flatnonzero(matches)
        if hit.size == 0:
            raise ValueError("no scrambler state matches the service bits")
        return int(hit[0]) + 1


@lru_cache(maxsize=1024)
def pilot_polarity_sequence(n_symbols: int) -> np.ndarray:
    """Pilot polarity p_n for ``n_symbols`` OFDM symbols as ±1 floats.

    Clause 18.3.5.10: p_n is the cyclic extension of the 127-bit scrambler
    sequence seeded with all ones, mapped 0 -> +1 and 1 -> -1.  Built once
    per length; the returned array is read-only.
    """
    seq = scrambler_sequence(n_symbols, 0b1111111)
    polarity = 1.0 - 2.0 * seq.astype(np.float64)
    polarity.flags.writeable = False
    return polarity
