"""Fig. 2 — the SNR gap between minimum-required and actual channel SNR.

For each target *measured* SNR (the NIC's report, which drives rate
adaptation), the harness records the minimum SNR required by the selected
data rate (the stair-case) and the ground-truth actual SNR from the
channel sounder.  The paper's headline example: at measured 15 dB the
selected rate is 24 Mbps, whose requirement is 12 dB, while the actual
SNR is 16.7 dB — a 4.7 dB gap.

Trials (one per grid SNR) run through :mod:`repro.engine`: the trial
function averages ``realizations`` independent channel draws, the
reduction attaches the rate-adaptation staircase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import engine
from repro.experiments.common import Claim, ExperimentConfig, check_all, print_table
from repro.ratectl import RateAdapter

__all__ = ["SnrGapPoint", "SnrGapResult", "run", "print_result", "claims"]


@dataclass(frozen=True)
class SnrGapPoint:
    measured_snr_db: float
    min_required_snr_db: float
    actual_snr_db: float
    rate_mbps: int

    @property
    def gap_db(self) -> float:
        """The exploitable SNR gap (actual minus required)."""
        return self.actual_snr_db - self.min_required_snr_db


@dataclass
class SnrGapResult:
    points: List[SnrGapPoint] = field(default_factory=list)

    @property
    def gaps_db(self) -> np.ndarray:
        return np.array([p.gap_db for p in self.points])

    def gap_always_positive(self) -> bool:
        """The paper's core observation: actual SNR > minimum required."""
        return bool(np.all(self.gaps_db > 0))


def _trial(spec: engine.TrialSpec) -> float:
    """Mean ground-truth SNR over the point's channel realizations."""
    config: ExperimentConfig = spec["config"]
    snr = spec["snr_db"]
    actuals = [
        config.channel(snr, seed_offset=17 * r).actual_snr_db
        for r in range(spec["realizations"])
    ]
    return float(np.mean(actuals))


def run(
    config: Optional[ExperimentConfig] = None,
    snr_grid: Optional[np.ndarray] = None,
    realizations: int = 3,
    workers: int = 0,
) -> SnrGapResult:
    """Sweep measured SNR 5–25 dB and record the three curves of Fig. 2.

    ``realizations`` channel draws are averaged per point (the paper's
    points come from distinct receiver placements).
    """
    config = config or ExperimentConfig()
    if snr_grid is None:
        snr_grid = np.arange(5.0, 25.5, 1.0)
    adapter = RateAdapter()

    params = [
        {"config": config, "snr_db": float(snr), "realizations": realizations}
        for snr in snr_grid
    ]
    actuals = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers, label="fig2"
    )

    points: List[SnrGapPoint] = []
    for snr, actual in zip(snr_grid, actuals):
        rate = adapter.select(float(snr))
        points.append(
            SnrGapPoint(
                measured_snr_db=float(snr),
                min_required_snr_db=adapter.min_required_snr_db(rate),
                actual_snr_db=actual,
                rate_mbps=rate.mbps,
            )
        )
    return SnrGapResult(points=points)


def print_result(result: SnrGapResult) -> None:
    print_table(
        ["measured dB", "rate Mbps", "min required dB", "actual dB", "gap dB"],
        [
            (p.measured_snr_db, p.rate_mbps, p.min_required_snr_db, p.actual_snr_db, p.gap_db)
            for p in result.points
        ],
        title="Fig. 2 — SNR gap (actual vs minimum required)",
    )


def claims(result: SnrGapResult) -> List[Claim]:
    """Actual SNR sits above the staircase by a gap of the paper's order."""
    def gaps(bound: float):
        return [(f"{p.measured_snr_db:g} dB", p.gap_db, bound) for p in result.points]

    return [
        check_all("gap_always_positive", ">", gaps(0.0)),
        check_all("min_gap", ">", gaps(0.5)),
        check_all("max_gap", "<", gaps(15.0)),
    ]


if __name__ == "__main__":
    print_result(run())
