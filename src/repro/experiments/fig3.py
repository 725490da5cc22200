"""Fig. 3 — decoder-input BER vs measured SNR at 24 Mbps.

The *actual BER* is the hard-decision bit error rate at the Viterbi
decoder's input (after demapping, before decoding).  The *redundant BER*
is the extra error rate the code could still absorb: the decoder-input
BER at the rate's minimum required SNR (12 dB) minus the actual BER at
the operating point.  It grows with measured SNR — that growth is the
correction capability CoS converts into silence symbols.

Trials (one per (SNR, channel realization)) run through
:mod:`repro.engine`; the reduction averages the per-packet BERs of each
grid SNR and subtracts the reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import engine
from repro.analysis import bit_error_rate
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

__all__ = ["DecoderBerPoint", "DecoderBerResult", "run", "print_result", "claims"]


@dataclass(frozen=True)
class DecoderBerPoint:
    measured_snr_db: float
    actual_ber: float
    redundant_ber: float


@dataclass
class DecoderBerResult:
    points: List[DecoderBerPoint] = field(default_factory=list)
    reference_ber: float = 0.0  # decoder-input BER at the minimum required SNR

    def redundant_increases_with_snr(self) -> bool:
        reds = [p.redundant_ber for p in self.points]
        return all(b >= a - 1e-4 for a, b in zip(reds, reds[1:]))


def _trial(spec: engine.TrialSpec) -> List[float]:
    """Decoder-input BERs of one channel realization's probe packets."""
    config: ExperimentConfig = spec["config"]
    rate = RATE_TABLE[24]
    channel = config.channel(spec["snr_db"], seed_offset=31 * spec["realization"])
    bers = []
    for frame, result in send_probe_packets(
        channel, rate, spec["n_packets"], payload=config.payload
    ):
        if result.pre_viterbi_bits is None:
            continue
        bers.append(bit_error_rate(frame.coded_bits, result.pre_viterbi_bits))
    return bers


def run(
    config: Optional[ExperimentConfig] = None,
    snr_grid: Optional[np.ndarray] = None,
    n_packets: int = 40,
    realizations: int = 2,
    workers: int = 0,
) -> DecoderBerResult:
    """Reproduce Fig. 3 over the 24 Mbps band (measured SNR 12–17.3 dB)."""
    config = config or ExperimentConfig()
    if snr_grid is None:
        snr_grid = np.array([12.0, 12.5, 13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 16.0, 16.5, 17.0, 17.3])

    params = [
        {"config": config, "snr_db": float(snr), "realization": r, "n_packets": n_packets}
        for snr in snr_grid
        for r in range(realizations)
    ]
    per_trial = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="fig3",
    )

    def mean_ber(grid_index: int) -> float:
        bers: List[float] = []
        for r in range(realizations):
            bers.extend(per_trial[grid_index * realizations + r])
        return float(np.mean(bers)) if bers else float("nan")

    reference = mean_ber(0)
    points = []
    for i, snr in enumerate(snr_grid):
        actual = reference if i == 0 else mean_ber(i)
        points.append(
            DecoderBerPoint(
                measured_snr_db=float(snr),
                actual_ber=actual,
                redundant_ber=max(reference - actual, 0.0),
            )
        )
    return DecoderBerResult(points=points, reference_ber=reference)


def print_result(result: DecoderBerResult) -> None:
    print_table(
        ["measured dB", "actual BER", "redundant BER"],
        [(p.measured_snr_db, p.actual_ber, p.redundant_ber) for p in result.points],
        title="Fig. 3 — decoder-input BER at 24 Mbps",
    )


def claims(result: DecoderBerResult) -> List[Claim]:
    """Decoder-input BER falls across the band; the spare BER grows."""
    first, last = result.points[0], result.points[-1]
    steps = [
        (f"{a.measured_snr_db:g}-{b.measured_snr_db:g} dB",
         b.redundant_ber, a.redundant_ber - 1e-4)
        for a, b in zip(result.points, result.points[1:])
    ]
    return [
        check_all("redundant_ber_rises", ">=", steps),
        check("actual_ber_falls", first.actual_ber, ">", last.actual_ber),
        check("redundant_ber_at_band_top", last.redundant_ber, ">", 0.0),
    ]


if __name__ == "__main__":
    print_result(run())
