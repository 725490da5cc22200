"""802.11 DCF timing constants and contention-window rules.

The one MAC model is the spatial simulator's per-node DCF machine
(:class:`repro.net.mac.NodeMac`); this package holds what it, the rate
controllers and the airtime accounting share: the slot/SIFS/DIFS/ACK
constants, :func:`~repro.mac.dcf.frame_airtime_us` and
:class:`~repro.mac.dcf.BackoffState`.
"""

from repro.mac.dcf import (
    ACK_US,
    BASE_RATE_MBPS,
    CW_MAX,
    CW_MIN,
    DIFS_US,
    MAX_RETRIES,
    SIFS_US,
    SLOT_US,
    BackoffState,
    frame_airtime_us,
)

__all__ = [
    "ACK_US",
    "BASE_RATE_MBPS",
    "CW_MAX",
    "CW_MIN",
    "DIFS_US",
    "MAX_RETRIES",
    "SIFS_US",
    "SLOT_US",
    "BackoffState",
    "frame_airtime_us",
]
