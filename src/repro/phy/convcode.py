"""Rate-1/2 K=7 convolutional encoder with 802.11a puncturing.

The industry-standard generators g0 = 133o, g1 = 171o produce two coded
bits (A then B) per input bit.  Rates 2/3 and 3/4 are obtained by
*puncturing* — deleting coded bits in a fixed periodic pattern (clause
18.3.5.6).  The deleted positions are re-inserted at the receiver as
**erasures** (zero bit metric), the same mechanism CoS uses for silence
symbols.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "CONSTRAINT_LENGTH",
    "G0_TAPS",
    "G1_TAPS",
    "PUNCTURE_PATTERNS",
    "conv_encode",
    "puncture",
    "depuncture",
    "n_coded_bits",
]

CONSTRAINT_LENGTH = 7

# Tap delays of the generator polynomials: g0 = 133o = 1011011b,
# g1 = 171o = 1111001b, with delay 0 being the current input bit.
G0_TAPS: Tuple[int, ...] = (0, 2, 3, 5, 6)
G1_TAPS: Tuple[int, ...] = (0, 1, 2, 3, 6)

# Puncture patterns over one period of (A, B) output pairs; 1 = transmit.
# Rate 3/4 sends A1 B1 A2 B3 (B2 and A3 stolen); rate 2/3 sends A1 B1 A2.
PUNCTURE_PATTERNS: Dict[Fraction, np.ndarray] = {
    Fraction(1, 2): np.array([[1, 1]], dtype=bool),
    Fraction(2, 3): np.array([[1, 1], [1, 0]], dtype=bool),
    Fraction(3, 4): np.array([[1, 1], [1, 0], [0, 1]], dtype=bool),
}


def _xor_taps(padded: np.ndarray, taps: Tuple[int, ...], n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.uint8)
    for delay in taps:
        out ^= padded[CONSTRAINT_LENGTH - 1 - delay : CONSTRAINT_LENGTH - 1 - delay + n]
    return out


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode ``bits`` at rate 1/2, returning interlaced output A0 B0 A1 B1 …

    The encoder starts from the all-zero state; callers append 6 tail zeros
    beforehand if they want a terminated trellis (the PLCP layer does).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    padded = np.concatenate([np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.uint8), bits])
    a = _xor_taps(padded, G0_TAPS, n)
    b = _xor_taps(padded, G1_TAPS, n)
    out = np.empty(2 * n, dtype=np.uint8)
    out[0::2] = a
    out[1::2] = b
    return out


@lru_cache(maxsize=1024)
def _pattern_mask(code_rate: Fraction, n_pairs: int) -> np.ndarray:
    """Flat keep-mask over ``n_pairs`` (A, B) pairs; built once, read-only."""
    try:
        pattern = PUNCTURE_PATTERNS[code_rate]
    except KeyError:
        valid = sorted(PUNCTURE_PATTERNS)
        raise ValueError(f"unsupported code rate {code_rate}; valid: {valid}") from None
    reps = -(-n_pairs // pattern.shape[0])
    mask = np.tile(pattern, (reps, 1))[:n_pairs].reshape(-1)
    mask.flags.writeable = False
    return mask


def puncture(coded: np.ndarray, code_rate: Fraction) -> np.ndarray:
    """Delete coded bits according to the puncture pattern of ``code_rate``."""
    coded = np.asarray(coded)
    if coded.size % 2 != 0:
        raise ValueError("coded stream must contain whole (A, B) pairs")
    return coded[_pattern_mask(code_rate, coded.size // 2)]


def depuncture(values: np.ndarray, code_rate: Fraction, fill: float = 0.0) -> np.ndarray:
    """Re-insert punctured positions as ``fill`` (an erasure for LLR input).

    ``values`` is the received stream of soft metrics (or hard bits) for the
    *transmitted* positions; the returned array has the full rate-1/2 length
    with ``fill`` at every stolen position.
    """
    values = np.asarray(values, dtype=np.float64)
    pattern = PUNCTURE_PATTERNS[code_rate]
    kept_per_period = int(pattern.sum())
    if values.size % kept_per_period != 0:
        raise ValueError(
            f"stream of {values.size} values is not a whole number of "
            f"puncture periods (period keeps {kept_per_period})"
        )
    n_pairs = (values.size // kept_per_period) * pattern.shape[0]
    mask = _pattern_mask(code_rate, n_pairs)
    out = np.full(mask.size, fill, dtype=np.float64)
    out[mask] = values
    return out


def n_coded_bits(n_info_bits: int, code_rate: Fraction) -> int:
    """Transmitted coded-bit count for ``n_info_bits`` at ``code_rate``."""
    value = Fraction(n_info_bits) / code_rate
    if value.denominator != 1:
        raise ValueError(
            f"{n_info_bits} info bits is not a whole number of periods at rate {code_rate}"
        )
    return int(value)
