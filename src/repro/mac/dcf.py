"""802.11 DCF timing and binary exponential backoff.

The constants every MAC in this package prices airtime with — slot,
SIFS, DIFS, ACK, the contention-window bounds and the retry limit — plus
the on-air time of a frame at a given rate, and the contention-window
rules themselves (:class:`BackoffState`), which the event-driven
per-node MAC (:class:`repro.net.mac.NodeMac`) runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.phy.params import PhyRate

__all__ = [
    "SLOT_US",
    "SIFS_US",
    "DIFS_US",
    "CW_MIN",
    "CW_MAX",
    "ACK_US",
    "MAX_RETRIES",
    "BASE_RATE_MBPS",
    "frame_airtime_us",
    "BackoffState",
]

SLOT_US = 9.0
SIFS_US = 16.0
DIFS_US = 34.0
ACK_US = 44.0  # preamble + SIGNAL + 14-byte ACK at 6 Mbps (rounded)
CW_MIN = 15
CW_MAX = 1023
MAX_RETRIES = 7
#: The rate control and management frames are sent at.
BASE_RATE_MBPS = 6

_PREAMBLE_SIGNAL_US = 20.0


def frame_airtime_us(n_octets: int, rate: PhyRate) -> float:
    """On-air time of an ``n_octets`` PSDU: PLCP preamble + SIGNAL + symbols."""
    return _PREAMBLE_SIGNAL_US + rate.n_symbols_for(n_octets) * 4.0


@dataclass
class BackoffState:
    """Binary-exponential backoff bookkeeping (CW window + drawn slots).

    The contention-window rules of 802.11 DCF: draw uniform in
    ``[0, CW]``, double ``CW`` (bounded by ``CW_MAX``) on a failed
    exchange, reset to ``CW_MIN`` on success.
    """

    cw: int = CW_MIN
    slots: Optional[int] = None

    def draw(self, rng: np.random.Generator) -> int:
        self.slots = int(rng.integers(0, self.cw + 1))
        return self.slots

    def on_failure(self) -> None:
        self.cw = min(2 * (self.cw + 1) - 1, CW_MAX)
        self.slots = None

    def reset(self) -> None:
        self.cw = CW_MIN
        self.slots = None
