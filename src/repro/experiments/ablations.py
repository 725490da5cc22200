"""Ablation studies for the design choices the paper argues for.

1. **Placement** (§II-D): silences on the *weak* subcarriers overlap with
   symbols that would have been corrupted anyway, so at a fixed insertion
   rate the data PRR is at least as high as with random or strong-
   subcarrier placement — equivalently, weak placement sustains a higher
   Rm.
2. **EVD vs error-only decoding** (§III-E): zeroing the bit metrics of
   detected silences (erasures) beats letting the demapper treat the
   noise-only observation as signal (errors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import engine
from repro.cos.silence import SilencePlanner
from repro.experiments.common import (
    ExperimentConfig,
    init_phy_worker,
    print_table,
    send_probe_packets,
)
from repro.phy import RATE_TABLE
from repro.phy.params import N_DATA_SUBCARRIERS

__all__ = [
    "PlacementResult",
    "run_placement",
    "EvdResult",
    "run_evd",
    "print_placement",
    "print_evd",
]


def _subcarrier_order(channel, strategy: str, rng: np.random.Generator) -> np.ndarray:
    gains = channel.data_subcarrier_snrs()
    if strategy == "weak":
        return np.argsort(gains)  # weakest first
    if strategy == "strong":
        return np.argsort(gains)[::-1]
    if strategy == "random":
        return rng.permutation(N_DATA_SUBCARRIERS)
    raise ValueError(f"unknown strategy {strategy!r}")


def _trial(spec: engine.TrialSpec) -> float:
    """One grid cell: PRR with ``groups`` interval groups on the 16
    subcarriers ``strategy`` picks.

    Detection is bypassed (the true silence mask is used, or no erasures
    for error-only decoding) so the ablation isolates the *decoding*
    cost of placement, not detector behaviour.
    """
    config: ExperimentConfig = spec["config"]
    rate = RATE_TABLE[spec["rate_mbps"]]
    n_symbols = rate.n_symbols_for(len(config.payload) + 4)  # + FCS
    rng = np.random.default_rng(config.seed + 13)

    def silence(channel) -> np.ndarray:
        order = _subcarrier_order(channel, spec["strategy"], rng)
        planner = SilencePlanner(sorted(int(c) for c in order[:16]))
        bits = rng.integers(0, 2, size=4 * spec["groups"], dtype=np.uint8)
        return planner.plan(bits, n_symbols).mask

    results = send_probe_packets(
        config.channel(spec["snr_db"]), rate, spec["n_packets"],
        payload=config.payload, silence=silence,
        erasures="true" if spec["use_erasures"] else "none",
    )
    return sum(result.ok for _, result in results) / spec["n_packets"]


@dataclass
class PlacementResult:
    """PRR by placement strategy at increasing insertion rates."""

    groups_grid: List[int] = field(default_factory=list)
    prr: Dict[str, List[float]] = field(default_factory=dict)

    def weak_dominates(self) -> bool:
        """Weak placement should never lose badly to the alternatives."""
        weak = np.array(self.prr["weak"])
        return all(
            np.all(weak >= np.array(self.prr[s]) - 0.05)
            for s in self.prr
            if s != "weak"
        )


def _default_groups_grid(config: ExperimentConfig, rate_mbps: int) -> List[int]:
    rate = RATE_TABLE[rate_mbps]
    n_symbols = rate.n_symbols_for(len(config.payload) + 4)
    cap = int(16 * n_symbols / 8.5)
    return [max(cap // 4, 1), max(cap // 2, 2), max(3 * cap // 4, 3),
            max(int(0.95 * cap), 4)]


def run_placement(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 9.6,
    rate_mbps: int = 18,
    n_packets: int = 120,
    groups_grid: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> PlacementResult:
    config = config or ExperimentConfig()
    if groups_grid is None:
        groups_grid = _default_groups_grid(config, rate_mbps)

    strategies = ("weak", "random", "strong")
    params = [
        {
            "config": config,
            "snr_db": snr_db,
            "rate_mbps": rate_mbps,
            "groups": g,
            "strategy": strategy,
            "n_packets": n_packets,
            "use_erasures": True,
        }
        for strategy in strategies
        for g in groups_grid
    ]
    prrs = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="ablation.placement",
    )

    result = PlacementResult(groups_grid=list(groups_grid))
    for s, strategy in enumerate(strategies):
        result.prr[strategy] = prrs[s * len(groups_grid) : (s + 1) * len(groups_grid)]
    return result


@dataclass
class EvdResult:
    """PRR with erasure decoding vs error-only decoding."""

    groups_grid: List[int] = field(default_factory=list)
    prr_evd: List[float] = field(default_factory=list)
    prr_error_only: List[float] = field(default_factory=list)

    def evd_dominates(self) -> bool:
        return all(e >= o - 0.05 for e, o in zip(self.prr_evd, self.prr_error_only))


def run_evd(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 9.6,
    rate_mbps: int = 18,
    n_packets: int = 120,
    groups_grid: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> EvdResult:
    config = config or ExperimentConfig()
    if groups_grid is None:
        groups_grid = _default_groups_grid(config, rate_mbps)

    params = [
        {
            "config": config,
            "snr_db": snr_db,
            "rate_mbps": rate_mbps,
            "groups": groups,
            "strategy": "weak",
            "n_packets": n_packets,
            "use_erasures": use_erasures,
        }
        for groups in groups_grid
        for use_erasures in (True, False)
    ]
    prrs = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="ablation.evd",
    )

    result = EvdResult(groups_grid=list(groups_grid))
    for i in range(len(groups_grid)):
        result.prr_evd.append(prrs[2 * i])
        result.prr_error_only.append(prrs[2 * i + 1])
    return result


def print_placement(result: PlacementResult) -> None:
    rows = []
    for i, g in enumerate(result.groups_grid):
        rows.append(
            (g, result.prr["weak"][i], result.prr["random"][i], result.prr["strong"][i])
        )
    print_table(
        ["interval groups/packet", "PRR weak", "PRR random", "PRR strong"],
        rows,
        title="Ablation — silence placement strategy",
    )


def print_evd(result: EvdResult) -> None:
    rows = list(zip(result.groups_grid, result.prr_evd, result.prr_error_only))
    print_table(
        ["interval groups/packet", "PRR with EVD", "PRR error-only"],
        rows,
        title="Ablation — erasure vs error-only Viterbi decoding",
    )


if __name__ == "__main__":
    print_placement(run_placement())
    print_evd(run_evd())
