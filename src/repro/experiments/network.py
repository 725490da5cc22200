"""Network-level experiment: the system-wide value of free control.

Not a paper figure — the paper evaluates CoS at the link level — but the
quantitative version of its motivation (§I): control messages carried by
explicit frames consume airtime and contention slots; CoS carries them
for free.  The harness sweeps contention (station count) on the spatial
event-driven simulator (:mod:`repro.net`): a :func:`repro.net.scenarios
.contention` ring with log-distance path loss, SINR + capture reception
and per-node DCF machines, run once under each control scheme.  It
reports goodput (delivered payload bits ÷ the time of the last
delivery), control airtime share and control latency.

Beside the ring it runs the rate-controller matrix on ``hidden-node``
(:func:`repro.ratectl.compare_controllers`): CoS feedback against
explicit feedback, and against the feedback-free samplers (Minstrel,
SampleRate) that real 802.11 stacks run instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import engine
from repro.experiments.common import Claim, check_all, print_table

__all__ = [
    "NetworkComparisonResult",
    "control_latency_us",
    "run",
    "print_result",
    "claims",
]

@dataclass
class NetworkComparisonResult:
    """Per-contention-level pairs of (explicit, cos) :class:`repro.net
    .NetResult` outcomes, plus the hidden-node controller matrix (a
    :func:`repro.ratectl.compare_controllers` report)."""

    station_counts: List[int]
    explicit: List[object]
    cos: List[object]
    hidden_node: Dict


def control_latency_us(result) -> float:
    """Mean control latency of a :class:`repro.net.NetResult`, pooled
    over every node's delivered control messages (0 when none)."""
    latencies = [
        lat
        for stats in result.per_node.values()
        for lat in stats.control_latencies_us
    ]
    if not latencies:
        return 0.0
    return sum(latencies) / len(latencies)


def _contention_trial(spec: engine.TrialSpec):
    """One spatial simulation of the contention ring (module-level: picklable)."""
    from repro.net import run_scenario
    from repro.net.scenarios import contention

    scenario = contention(
        control=spec["scheme"],
        n_stations=spec["n_stations"],
        n_packets=spec["packets_per_station"],
        payload_octets=spec["payload_octets"],
        data_rate_mbps=spec["data_rate_mbps"],
    )
    scenario = dataclasses.replace(
        scenario, cos_delivery_prob=spec["cos_delivery_prob"]
    )
    return run_scenario(scenario, rng=spec["seed"])


def run(
    station_counts: Optional[List[int]] = None,
    cos_delivery_prob: float = 0.97,
    seed: int = 7,
    workers: int = 0,
    payload_octets: int = 1024,
    data_rate_mbps: int = 24,
    packets_per_station: int = 50,
) -> NetworkComparisonResult:
    """Compare the two control schemes across contention levels, then run
    the rate-controller matrix on ``hidden-node``.

    One engine trial per (scheme, station count) — each simulation is
    seeded independently, so all cells run in parallel.
    """
    from repro.net.scenarios import builtin_scenario
    from repro.ratectl.compare import compare_controllers

    station_counts = station_counts or [2, 4, 8, 12]
    params = [
        {
            "scheme": scheme,
            "n_stations": n,
            "cos_delivery_prob": cos_delivery_prob,
            "payload_octets": payload_octets,
            "data_rate_mbps": data_rate_mbps,
            "packets_per_station": packets_per_station,
            "seed": seed,
        }
        for n in station_counts
        for scheme in ("explicit", "cos")
    ]
    outcomes = engine.run_sweep(
        params, _contention_trial, seed=seed, workers=workers, label="network"
    )
    return NetworkComparisonResult(
        station_counts=list(station_counts),
        explicit=outcomes[0::2],
        cos=outcomes[1::2],
        hidden_node=compare_controllers(
            builtin_scenario("hidden-node"), n_trials=3, seed=0,
            workers=workers,
        ),
    )


def print_result(result: NetworkComparisonResult) -> None:
    rows = []
    for n, e, c in zip(result.station_counts, result.explicit, result.cos):
        rows.append(
            (
                n,
                e.aggregate_goodput_mbps,
                c.aggregate_goodput_mbps,
                e.control_airtime_fraction * 100,
                control_latency_us(e) / 1e3,
                control_latency_us(c) / 1e3,
            )
        )
    print_table(
        [
            "stations",
            "goodput explicit (Mbps)",
            "goodput CoS (Mbps)",
            "explicit ctrl airtime %",
            "latency explicit (ms)",
            "latency CoS (ms)",
        ],
        rows,
        title="Network comparison — explicit control frames vs CoS piggyback",
    )
    report = result.hidden_node
    print_table(
        ["controller", "transport", "goodput (Mbps)", "ctrl air %"],
        [(name, row["transport"], row["goodput_mbps"],
          row["control_airtime_fraction"] * 100)
         for name, row in report["controllers"].items()],
        title=(f"Rate-controller matrix on {report['scenario']} "
               f"[{report['n_trials']} trials, seed {report['seed']}]"),
    )


def claims(result: NetworkComparisonResult) -> List[Claim]:
    """Free control never costs goodput (no slack), and only explicit
    control pays airtime, at every station count and on ``hidden-node``;
    there CoS feedback also beats the feedback-free samplers."""
    rows = [
        (f"{n} stations", e.aggregate_goodput_mbps, c.aggregate_goodput_mbps,
         e.control_airtime_fraction, c.control_airtime_fraction)
        for n, e, c in zip(result.station_counts, result.explicit, result.cos)
    ]
    per = result.hidden_node["controllers"]
    cos, exp = per["cos-feedback"], per["explicit-feedback"]
    rows.append(("hidden-node", exp["goodput_mbps"], cos["goodput_mbps"],
                 exp["control_airtime_fraction"],
                 cos["control_airtime_fraction"]))
    free = max(per["minstrel"]["goodput_mbps"],
               per["samplerate"]["goodput_mbps"])
    return [
        check_all("cos_never_loses_goodput", ">=", [
            (at, cos_mbps, exp_mbps) for at, exp_mbps, cos_mbps, _, _ in rows
        ]),
        check_all("cos_control_airtime", "==", [
            (at, cos_air, 0.0) for at, _, _, _, cos_air in rows
        ]),
        check_all("explicit_control_airtime", ">", [
            (at, exp_air, 0.0) for at, _, _, exp_air, _ in rows
        ]),
        check_all("cos_beats_feedback_free", ">=",
                  [("hidden-node", cos["goodput_mbps"], free)]),
    ]


if __name__ == "__main__":
    print_result(run())
