"""Fig. 9 — capacity of free control messages: max silence rate Rm vs SNR.

For each 802.11a rate band the harness finds, by search over the insertion
rate, the maximum number of silence symbols per second (Rm) that keeps the
data packet reception rate at the paper's 99.3 % target.  Expected shape
(paper §IV-B): within a band Rm grows with SNR (more spare redundancy) and
saturates; ceilings order by code rate (1/2 > 3/4 at fixed modulation) and
by modulation (QPSK > 16QAM > 64QAM at fixed code rate), so the envelope
decreases from ≈148 k silences/s in the QPSK-1/2 band to ≈33 k at the
64QAM-3/4 band edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import engine
from repro.cos.intervals import IntervalCodec
from repro.cos.link import CosLink
from repro.cos.rate_control import ControlAllocation, ControlRateController
from repro.experiments.common import Claim, ExperimentConfig, check, check_all, print_table
from repro.ratectl import RateAdapter

__all__ = [
    "CapacityPoint", "CapacityResult", "run", "print_result", "claims", "measure_prr",
]

PRR_TARGET = 0.993
_BANDS_MBPS = (12, 18, 24, 36, 48, 54)


class _FixedBudgetController(ControlRateController):
    """A controller that always allocates a fixed number of k-bit groups.

    Used to *measure* Rm; the adaptive table in
    :mod:`repro.cos.rate_control` is the consumer of those measurements.
    """

    def __init__(self, groups_per_packet: int, codec: Optional[IntervalCodec] = None):
        super().__init__(codec=codec)
        self.groups_per_packet = int(groups_per_packet)

    def allocation(self, measured_snr_db: float, n_data_symbols: int) -> ControlAllocation:
        if self.groups_per_packet <= 0:
            return ControlAllocation(1, 0, 0)
        k = self.codec.k
        per_interval = self.codec.max_interval / 2.0 + 1.0
        needed = 1 + self.groups_per_packet * per_interval
        n_sub = int(-(-needed // n_data_symbols))
        n_sub = max(1, min(n_sub, self.max_subcarriers))
        return ControlAllocation(
            n_control_subcarriers=n_sub,
            max_control_bits=self.groups_per_packet * k,
            target_silences=self.groups_per_packet + 1,
        )


def measure_prr(
    config: ExperimentConfig,
    snr_db: float,
    groups_per_packet: int,
    n_packets: int,
    seed_offsets=(0, 1009),
) -> tuple:
    """(data PRR, mean silences/packet, mean airtime) at a fixed insertion.

    Packets are split across ``seed_offsets`` independent channel
    realizations so one unlucky draw does not dominate the estimate.
    """
    ok = 0
    total = 0
    silences = []
    airtimes = []
    per_real = max(n_packets // len(seed_offsets), 1)
    for seed_offset in seed_offsets:
        channel = config.channel(snr_db, seed_offset=seed_offset)
        controller = _FixedBudgetController(groups_per_packet)
        link = CosLink(channel=channel, controller=controller)
        rng = np.random.default_rng(config.seed + 977 + seed_offset)
        for _ in range(per_real):
            bits = rng.integers(0, 2, size=4 * groups_per_packet, dtype=np.uint8)
            outcome = link.exchange(config.payload, bits)
            ok += outcome.data_ok
            total += 1
            silences.append(outcome.n_silences)
            n_symbols = link.adapter.select(outcome.measured_snr_db).n_symbols_for(
                len(config.payload) + 4
            )
            airtimes.append(ControlRateController.packet_airtime_s(n_symbols))
    return ok / total, float(np.mean(silences)), float(np.mean(airtimes))


@dataclass(frozen=True)
class CapacityPoint:
    """One band point.  ``rm_per_sec``/``control_kbps`` are None when the
    point is invalid: its zero-silence baseline already misses the PRR
    target, so no silence rate can be measured there; ``prr`` is then the
    baseline's."""

    measured_snr_db: float
    rate_mbps: int
    rm_per_sec: Optional[float]
    control_kbps: Optional[float]
    prr: float

    @property
    def valid(self) -> bool:
        return self.rm_per_sec is not None


@dataclass
class CapacityResult:
    points: List[CapacityPoint] = field(default_factory=list)

    def _band(self, mbps: int) -> List[CapacityPoint]:
        """The band's valid points, by SNR."""
        return sorted(
            (p for p in self.points if p.rate_mbps == mbps and p.valid),
            key=lambda p: p.measured_snr_db,
        )

    def ceiling(self, mbps: int) -> float:
        """Max Rm observed within a rate band (0 when no point is valid)."""
        return max((p.rm_per_sec for p in self._band(mbps)), default=0.0)

    def rm_rises_within_band(self, mbps: int) -> bool:
        values = [p.rm_per_sec for p in self._band(mbps)]
        return len(values) < 2 or values[-1] >= values[0]


def _find_rm(
    config: ExperimentConfig, snr_db: float, n_packets: int, max_failures: int
) -> CapacityPoint:
    adapter = RateAdapter()
    rate = adapter.select(snr_db)
    n_symbols = rate.n_symbols_for(len(config.payload) + 4)
    stream_cap = 16 * n_symbols
    hi_groups = max(int(stream_cap / 8.5) - 1, 1)
    target = 1.0 - max_failures / n_packets

    def passes(groups: int):
        prr, silences, airtime = measure_prr(config, snr_db, groups, n_packets)
        return prr >= target, prr, silences, airtime

    # The zero-silence baseline first: where the channel alone misses the
    # target, silences have nothing left to spend.
    ok, prr, silences, airtime = passes(0)
    if not ok:
        return CapacityPoint(snr_db, rate.mbps, None, None, prr)

    # Binary search over the insertion rate above the passing baseline.
    lo, hi = 0, hi_groups
    best = (0, prr, silences, airtime)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        ok, prr, silences, airtime = passes(mid)
        if ok:
            best = (mid, prr, silences, airtime)
            lo = mid
        else:
            hi = mid - 1

    groups, prr, silences, airtime = best
    rm = silences / airtime if groups > 0 else 0.0
    return CapacityPoint(
        measured_snr_db=snr_db,
        rate_mbps=rate.mbps,
        rm_per_sec=rm,
        control_kbps=groups * 4 / airtime / 1e3,
        prr=prr,
    )


def _trial(spec: engine.TrialSpec) -> CapacityPoint:
    """One band point: the full Rm search at a fixed measured SNR."""
    return _find_rm(
        spec["config"], spec["snr_db"], spec["n_packets"], spec["max_failures"]
    )


def run(
    config: Optional[ExperimentConfig] = None,
    n_packets: int = 150,
    points_per_band: int = 2,
    bands_mbps=None,
    workers: int = 0,
) -> CapacityResult:
    """Measure Rm at ``points_per_band`` SNRs inside each rate band.

    Each band point is one engine trial (the Rm binary search within a
    point is adaptive, hence sequential; points are independent).
    """
    config = config or ExperimentConfig()
    # At 150 packets this is the paper's 1-in-150 (99.3 %) criterion.
    max_failures = max(1, int(n_packets * (1 - PRR_TARGET)))
    adapter = RateAdapter()
    bands = bands_mbps or _BANDS_MBPS

    from repro.phy import RATE_TABLE

    params = []
    for mbps in bands:
        low, high = adapter.band(RATE_TABLE[mbps])
        if high == float("inf"):
            high = low + 3.0
        snrs = np.linspace(low + 0.3, high - 0.3, points_per_band)
        params.extend(
            {
                "config": config,
                "snr_db": float(snr),
                "n_packets": n_packets,
                "max_failures": max_failures,
            }
            for snr in snrs
        )
    points = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers, label="fig9"
    )
    return CapacityResult(points=list(points))


def print_result(result: CapacityResult) -> None:
    print_table(
        ["measured dB", "rate Mbps", "Rm /s", "control kbps", "PRR"],
        [
            (p.measured_snr_db, p.rate_mbps, int(p.rm_per_sec), p.control_kbps, p.prr)
            if p.valid else (p.measured_snr_db, p.rate_mbps, "-", "invalid", p.prr)
            for p in sorted(result.points, key=lambda p: p.measured_snr_db)
        ],
        title="Fig. 9 — max silence-symbol rate Rm vs measured SNR",
    )


def claims(result: CapacityResult) -> List[Claim]:
    """The §IV-B shape: ceilings ordered by modulation and code rate, Rm
    alive everywhere, every point at the PRR target.  An invalid point
    has no Rm: it reads NaN, which fails ``rm_positive``."""
    points = sorted(result.points, key=lambda p: p.measured_snr_db)
    return [
        check("ceiling_12_above_54", result.ceiling(12), ">", result.ceiling(54)),
        check("ceiling_12_vs_18", result.ceiling(12), ">=", result.ceiling(18) * 0.7),
        check("ceiling_24_vs_36", result.ceiling(24), ">=", result.ceiling(36) * 0.7),
        check_all("rm_positive", ">", [
            (f"{p.measured_snr_db:g} dB", p.rm_per_sec if p.valid else float("nan"), 0.0)
            for p in points
        ]),
        check_all("prr_at_target", ">=", [
            (f"{p.measured_snr_db:g} dB", p.prr, 0.95) for p in points
        ]),
    ]


if __name__ == "__main__":
    print_result(run())
