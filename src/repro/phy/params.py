"""IEEE 802.11a PHY constants: rate table, subcarrier plan, timing.

All numbers follow IEEE Std 802.11-2012 clause 18 (the OFDM PHY, originally
802.11a).  A 20 MHz channel carries 64 subcarriers: 48 data, 4 pilots
(±7, ±21), 11 guards and the DC null.  One OFDM symbol lasts 4 µs
(3.2 µs useful + 0.8 µs cyclic prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "N_FFT",
    "N_DATA_SUBCARRIERS",
    "N_PILOT_SUBCARRIERS",
    "CP_LEN",
    "SYMBOL_SAMPLES",
    "SYMBOL_DURATION_S",
    "SYMBOLS_PER_SECOND",
    "DATA_SUBCARRIER_INDICES",
    "PILOT_SUBCARRIER_INDICES",
    "USED_SUBCARRIER_INDICES",
    "PILOT_PATTERN",
    "PhyRate",
    "RATE_TABLE",
    "RATES_MBPS",
    "rate_for_mbps",
    "SERVICE_BITS",
    "TAIL_BITS",
]

# ---------------------------------------------------------------------------
# OFDM numerology
# ---------------------------------------------------------------------------

N_FFT = 64
N_DATA_SUBCARRIERS = 48
N_PILOT_SUBCARRIERS = 4
CP_LEN = 16
SYMBOL_SAMPLES = N_FFT + CP_LEN  # 80 samples at 20 Msps
SYMBOL_DURATION_S = 4e-6
SYMBOLS_PER_SECOND = 1.0 / SYMBOL_DURATION_S  # 250 000 OFDM symbols/s

# Logical subcarrier indices run -26..+26 with DC (0) unused.  Pilots sit at
# ±7 and ±21; the 48 remaining used indices carry data.  The ordering below
# is ascending frequency, which is also the order used by the interleaver's
# subcarrier mapping.
PILOT_SUBCARRIER_INDICES: Tuple[int, ...] = (-21, -7, 7, 21)

_used = [k for k in range(-26, 27) if k != 0]
DATA_SUBCARRIER_INDICES: Tuple[int, ...] = tuple(
    k for k in _used if k not in PILOT_SUBCARRIER_INDICES
)
USED_SUBCARRIER_INDICES: Tuple[int, ...] = tuple(_used)

assert len(DATA_SUBCARRIER_INDICES) == N_DATA_SUBCARRIERS
assert len(USED_SUBCARRIER_INDICES) == 52

# Pilot BPSK pattern on (-21, -7, +7, +21); the per-symbol polarity sequence
# multiplying it lives in repro.phy.ofdm (it is the scrambler sequence).
PILOT_PATTERN = np.array([1.0, 1.0, 1.0, -1.0])

# SERVICE field (16 zero bits, 7 of which initialise the descrambler) and
# the 6 tail bits that flush the convolutional encoder.
SERVICE_BITS = 16
TAIL_BITS = 6


# ---------------------------------------------------------------------------
# Rate-dependent parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhyRate:
    """One entry of the 802.11a rate table.

    Attributes
    ----------
    mbps:
        Nominal data rate in Mbit/s.
    modulation:
        One of ``"bpsk"``, ``"qpsk"``, ``"16qam"``, ``"64qam"``.
    code_rate:
        Convolutional code rate after puncturing (1/2, 2/3 or 3/4).
    n_bpsc:
        Coded bits per subcarrier (1, 2, 4, 6).
    signal_rate_bits:
        The 4-bit RATE field of the PLCP SIGNAL symbol (MSB first).
    """

    mbps: int
    modulation: str
    code_rate: Fraction
    n_bpsc: int
    signal_rate_bits: Tuple[int, int, int, int]

    @property
    def n_cbps(self) -> int:
        """Coded bits per OFDM symbol."""
        return self.n_bpsc * N_DATA_SUBCARRIERS

    @cached_property
    def n_dbps(self) -> int:
        """Data bits per OFDM symbol (computed once per rate)."""
        value = Fraction(self.n_cbps) * self.code_rate
        assert value.denominator == 1
        return int(value)

    @property
    def bits_per_symbol(self) -> int:
        """Data bits carried by one *data-subcarrier* symbol (before coding)."""
        return self.n_bpsc

    @property
    def name(self) -> str:
        return f"({self.modulation.upper()},{self.code_rate})"

    def n_symbols_for(self, n_octets: int) -> int:
        """Number of OFDM data symbols needed for an ``n_octets`` PSDU."""
        n_bits = SERVICE_BITS + 8 * n_octets + TAIL_BITS
        return -(-n_bits // self.n_dbps)  # ceil division


RATE_TABLE: Dict[int, PhyRate] = {
    6: PhyRate(6, "bpsk", Fraction(1, 2), 1, (1, 1, 0, 1)),
    9: PhyRate(9, "bpsk", Fraction(3, 4), 1, (1, 1, 1, 1)),
    12: PhyRate(12, "qpsk", Fraction(1, 2), 2, (0, 1, 0, 1)),
    18: PhyRate(18, "qpsk", Fraction(3, 4), 2, (0, 1, 1, 1)),
    24: PhyRate(24, "16qam", Fraction(1, 2), 4, (1, 0, 0, 1)),
    36: PhyRate(36, "16qam", Fraction(3, 4), 4, (1, 0, 1, 1)),
    48: PhyRate(48, "64qam", Fraction(2, 3), 6, (0, 0, 0, 1)),
    54: PhyRate(54, "64qam", Fraction(3, 4), 6, (0, 0, 1, 1)),
}

RATES_MBPS: Tuple[int, ...] = tuple(sorted(RATE_TABLE))


def rate_for_mbps(mbps: int) -> PhyRate:
    """Look up a :class:`PhyRate`, raising ``KeyError`` with the valid set."""
    try:
        return RATE_TABLE[mbps]
    except KeyError:
        raise KeyError(f"{mbps} Mbps is not an 802.11a rate; valid: {RATES_MBPS}") from None
