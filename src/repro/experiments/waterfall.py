"""PHY validation: packet-error waterfall curves per rate.

Not a paper figure — a conformance check on the substrate.  For each
802.11a rate the packet error rate is swept against SNR on a mild
channel.  :func:`claims` checks that each curve falls monotonically
(within 0.1 PER per step), that the first SNR with PER <= 0.1 falls by
no more than 1 dB from one rate to the next higher one, and that
6 Mbps gets there by 8 dB while 54 Mbps needs at least 14 dB.
Experiments built on a PHY that fails these checks measure nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import engine
from repro.experiments.common import (
    Claim,
    ExperimentConfig,
    check,
    check_all,
    init_phy_worker,
    print_table,
    send_probe_packets,
)
from repro.phy import RATE_TABLE

__all__ = ["WaterfallResult", "run", "print_result", "claims"]

_DEFAULT_RATES = (6, 12, 24, 54)


@dataclass
class WaterfallResult:
    """PER per (rate, SNR)."""

    snrs_db: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per: Dict[int, np.ndarray] = field(default_factory=dict)

    def monotone_non_increasing(self, mbps: int, slack: float = 0.1) -> bool:
        values = self.per[mbps]
        return all(b <= a + slack for a, b in zip(values, values[1:]))

    def snr_for_per(self, mbps: int, target: float = 0.1) -> float:
        """First SNR at which PER drops to ``target`` (inf if never)."""
        for snr, per in zip(self.snrs_db, self.per[mbps]):
            if per <= target:
                return float(snr)
        return float("inf")


def _trial(spec: engine.TrialSpec) -> float:
    """PER of one (rate, SNR) grid cell over its packet budget."""
    config: ExperimentConfig = spec["config"]
    payload = bytes(spec["payload_octets"])
    rate = RATE_TABLE[spec["rate_mbps"]]
    n_packets = spec["n_packets"]
    failures = 0
    for i in range(n_packets):
        channel = config.channel(spec["snr_db"], seed_offset=13 * i)
        ((_, result),) = send_probe_packets(channel, rate, 1, payload=payload)
        failures += not result.ok
    return failures / n_packets


def run(
    config: Optional[ExperimentConfig] = None,
    snrs_db: Optional[np.ndarray] = None,
    n_packets: int = 100,
    rates_mbps=_DEFAULT_RATES,
    payload_octets: int = 256,
    workers: int = 0,
) -> WaterfallResult:
    """Measure PER waterfalls on the mild position-C channel.

    One engine trial per (rate, SNR) cell — each packet's channel is an
    independent seeded draw, so the grid parallelises freely.
    """
    config = config or ExperimentConfig(position="C")
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    if snrs_db is None:
        snrs_db = np.arange(0.0, 26.0, 2.0)

    params = [
        {
            "config": config,
            "rate_mbps": mbps,
            "snr_db": float(snr),
            "n_packets": n_packets,
            "payload_octets": payload_octets,
        }
        for mbps in rates_mbps
        for snr in snrs_db
    ]
    pers = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="waterfall",
    )

    result = WaterfallResult(snrs_db=np.asarray(snrs_db, dtype=np.float64))
    n_snrs = len(result.snrs_db)
    for r, mbps in enumerate(rates_mbps):
        result.per[mbps] = np.array(pers[r * n_snrs : (r + 1) * n_snrs])
    return result


def print_result(result: WaterfallResult) -> None:
    rates = sorted(result.per)
    rows = []
    for i, snr in enumerate(result.snrs_db):
        rows.append([snr] + [result.per[m][i] for m in rates])
    print_table(
        ["SNR dB"] + [f"PER {m} Mbps" for m in rates],
        rows,
        title="PHY waterfall — packet error rate vs SNR",
    )
    for m in rates:
        print(f"{m} Mbps reaches PER<=0.1 at {result.snr_for_per(m):.1f} dB")


def claims(result: WaterfallResult) -> List[Claim]:
    """Monotone, rate-ordered waterfalls; BPSK-1/2 works at single-digit
    SNR, 64QAM-3/4 does not."""
    snrs = result.snrs_db
    thresholds = [(m, result.snr_for_per(m)) for m in sorted(result.per)]
    return [
        check_all("monotone", "<=", [
            (f"{m} Mbps {snrs[i + 1]:g} dB", b, a + 0.1)
            for m, values in result.per.items()
            for i, (a, b) in enumerate(zip(values, values[1:]))
        ]),
        # Higher rates need at least as much SNR (less 1 dB) for PER <= 0.1.
        check_all("rates_ordered", ">=", [
            (f"{ma}-{mb} Mbps", b, a - 1.0)
            for (ma, a), (mb, b) in zip(thresholds, thresholds[1:])
        ]),
        check("snr_per10_6mbps", result.snr_for_per(6), "<=", 8.0),
        check("snr_per10_54mbps", result.snr_for_per(54), ">=", 14.0),
    ]


if __name__ == "__main__":
    print_result(run())
