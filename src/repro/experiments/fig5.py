"""Fig. 5 — per-subcarrier EVM at three receiver positions.

A fixed packet with symbols known to both ends is sent repeatedly; the
receiver computes EVM per data subcarrier (eq. (1)).  Different positions
exhibit different degrees of frequency-selective fading, with EVM spreads
up to ~13 % across subcarriers of a single link in the paper.

One engine trial per receiver position (each position is an independent
channel, so positions measure in parallel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import engine
from repro.cos.evm import per_subcarrier_evm
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
from repro.phy.modulation import get_modulation

__all__ = ["EvmResult", "run", "print_result", "claims", "measure_evm"]


@dataclass
class EvmResult:
    """EVM (fraction) per subcarrier, keyed by position name."""

    evms: Dict[str, np.ndarray] = field(default_factory=dict)
    snr_db: float = 15.0

    def spread_percent(self, position: str) -> float:
        """Max-minus-min EVM across subcarriers, in percent."""
        e = self.evms[position]
        return float((e.max() - e.min()) * 100.0)


def measure_evm(
    channel, rate_mbps: int, n_packets: int, payload: bytes
) -> np.ndarray:
    """EVM per subcarrier using known transmitted symbols as reference."""
    rate = RATE_TABLE[rate_mbps]
    modulation = get_modulation(rate.modulation)
    evms = []
    for frame, result in send_probe_packets(channel, rate, n_packets, payload=payload):
        obs = result.observation
        if obs is None or obs.eq_data_grid.shape[0] < frame.n_data_symbols:
            continue
        evms.append(
            per_subcarrier_evm(
                obs.eq_data_grid[: frame.n_data_symbols],
                frame.data_symbols,
                modulation,
            )
        )
    if not evms:
        raise RuntimeError("no packets observed")
    return np.mean(evms, axis=0)


# A seed whose channel draws sit at the median selectivity of each profile
# (single links, as in the paper's three-position measurement).
REPRESENTATIVE_SEED = 27


def _trial(spec: engine.TrialSpec) -> np.ndarray:
    """Per-subcarrier EVM of one receiver position."""
    cfg = ExperimentConfig(
        seed=spec["seed"], position=spec["position"], payload=spec["payload"]
    )
    channel = cfg.channel(spec["snr_db"])
    return measure_evm(channel, 24, spec["n_packets"], spec["payload"])


def run(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 15.0,
    n_packets: int = 50,
    positions: Optional[List[str]] = None,
    workers: Optional[int] = None,
) -> EvmResult:
    """Measure Fig. 5's per-subcarrier EVM at positions A, B and C."""
    config = config or ExperimentConfig(seed=REPRESENTATIVE_SEED)
    positions = positions or ["A", "B", "C"]

    params = [
        {
            "seed": config.seed,
            "position": position,
            "payload": config.payload,
            "snr_db": snr_db,
            "n_packets": n_packets,
        }
        for position in positions
    ]
    evms = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="fig5",
    )

    result = EvmResult(snr_db=snr_db)
    for position, evm in zip(positions, evms):
        result.evms[position] = evm
    return result


def print_result(result: EvmResult) -> None:
    positions = sorted(result.evms)
    rows = []
    n = len(next(iter(result.evms.values())))
    for k in range(n):
        rows.append([k + 1] + [result.evms[p][k] * 100.0 for p in positions])
    print_table(
        ["subcarrier"] + [f"EVM% pos {p}" for p in positions],
        rows,
        title=f"Fig. 5 — per-subcarrier EVM at {result.snr_db} dB",
    )
    for p in positions:
        print(f"position {p}: EVM spread {result.spread_percent(p):.1f} %")


def claims(result: EvmResult) -> List[Claim]:
    """Frequency selectivity at every position, severest at A."""
    return [
        check_all("evm_spread", ">", [
            (f"position {p}", result.spread_percent(p), 1.0) for p in ("A", "B", "C")
        ]),
        check("spread_a_over_c", result.spread_percent("A"), ">",
              result.spread_percent("C")),
    ]


if __name__ == "__main__":
    print_result(run())
