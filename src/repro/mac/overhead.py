"""Network-level comparison: explicit control frames vs CoS piggyback.

Scenario: N stations stream fixed-size data packets; every data packet
generates one lightweight control message (a report/ack of
``control_bits`` bits) that must reach the peer.

* **EXPLICIT** — each control message becomes its own MAC frame (sent at
  the base rate, as 802.11 control/management frames are) and contends
  for the medium alongside data.
* **COS** — control messages ride inside the next data packet's silence
  symbols: zero airtime, but each attempt only succeeds with probability
  ``cos_delivery_prob`` (the per-message accuracy measured at the PHY
  level — see Fig. 10 / `LinkStats.message_accuracy`); failures retry on
  the following data packet.

The result quantifies the paper's motivation: what a WLAN buys by making
control messages free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from repro.mac.dcf import DcfSimulator, Frame, MacStats, Station
from repro.phy.params import RATE_TABLE, PhyRate
from repro.utils.rng import RngLike, make_rng

__all__ = [
    "ControlScheme",
    "OverheadResult",
    "run_overhead_comparison",
    "frame_airtime_us",
    "BASE_RATE_MBPS",
]

_PREAMBLE_SIGNAL_US = 20.0
BASE_RATE_MBPS = 6
_BASE_RATE = RATE_TABLE[BASE_RATE_MBPS]


class ControlScheme(str, Enum):
    EXPLICIT = "explicit"
    COS = "cos"


def frame_airtime_us(n_octets: int, rate: PhyRate) -> float:
    """On-air time of an ``n_octets`` PSDU: PLCP preamble + SIGNAL + symbols."""
    return _PREAMBLE_SIGNAL_US + rate.n_symbols_for(n_octets) * 4.0


@dataclass
class OverheadResult:
    """Outcomes of one scheme's run."""

    scheme: ControlScheme
    mac: MacStats
    control_messages_delivered: int
    control_attempts: int
    mean_control_latency_us: float

    @property
    def goodput_mbps(self) -> float:
        return self.mac.goodput_mbps

    @property
    def control_airtime_fraction(self) -> float:
        return self.mac.control_airtime_fraction


def run_overhead_comparison(
    scheme: ControlScheme,
    n_stations: int = 4,
    packets_per_station: int = 50,
    payload_octets: int = 1024,
    data_rate_mbps: int = 24,
    control_octets: int = 14,
    cos_delivery_prob: float = 0.97,
    duration_us: float = 500_000.0,
    seed: RngLike = 0,
) -> OverheadResult:
    """Simulate one scheme and return its network-level statistics.

    ``cos_delivery_prob`` should come from a PHY-level measurement
    (``LinkStats.message_accuracy`` at the operating SNR); the default is
    the working-region value.
    """
    rng = make_rng(seed)
    rate = RATE_TABLE[data_rate_mbps]
    data_airtime = frame_airtime_us(payload_octets, rate)
    control_airtime = frame_airtime_us(control_octets, _BASE_RATE)

    stations: List[Station] = []
    for i in range(n_stations):
        queue: List[Frame] = []
        for p in range(packets_per_station):
            queue.append(
                Frame(
                    kind="data",
                    duration_us=data_airtime,
                    payload_bits=payload_octets * 8,
                    created_us=0.0,
                )
            )
            if scheme is ControlScheme.EXPLICIT:
                queue.append(
                    Frame(kind="control", duration_us=control_airtime, created_us=0.0)
                )
        stations.append(Station(name=f"sta{i}", queue=queue))

    sim = DcfSimulator(stations, rng=rng)
    mac = sim.run(duration_us)

    if scheme is ControlScheme.EXPLICIT:
        delivered = len(mac.control_latencies_us)
        attempts = delivered
        latency = mac.mean_control_latency_us
    else:
        # CoS: every delivered data frame carries one control attempt; a
        # failed attempt retries on the carrier's next data frame.  With
        # i.i.d. per-attempt success p, the number of carriers consumed
        # per message is geometric; latency is the inter-data-frame gap
        # times the extra carriers needed.
        data_frames = mac.delivered_frames
        p = cos_delivery_prob
        outcomes = rng.random(data_frames) < p
        delivered = int(outcomes.sum())
        attempts = data_frames
        if data_frames:
            inter_frame_gap = mac.elapsed_us / data_frames
            extra_carriers = (1.0 / max(p, 1e-9)) - 1.0
            latency = inter_frame_gap * (1.0 + extra_carriers)
        else:
            latency = 0.0

    return OverheadResult(
        scheme=scheme,
        mac=mac,
        control_messages_delivered=delivered,
        control_attempts=attempts,
        mean_control_latency_us=latency,
    )
