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
SampleRate) that real 802.11 stacks run instead.  Last, it counts the
control messages that cross between the two mutually hidden cells of
``cross-cell``: the ones the APs consume, since every AP-side message
is the feedback of an AP-to-AP flow whose data frames never decode.

Frame fates and CoS delivery come from the measured-PHY surrogate
table, as in every ``repro.net`` run.
"""

from __future__ import annotations

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

#: The APs of :func:`repro.net.scenarios.cross_cell`.
CROSS_CELL_APS = ("ap_west", "ap_east")


@dataclass
class NetworkComparisonResult:
    """Per-contention-level pairs of (explicit, cos) :class:`repro.net
    .NetResult` outcomes, the hidden-node controller matrix (a
    :func:`repro.ratectl.compare_controllers` report), and the cross-cell
    AP-side control deliveries per feedback controller (mean over
    trials)."""

    station_counts: List[int]
    explicit: List[object]
    cos: List[object]
    hidden_node: Dict
    cross_cell: Dict[str, float]


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
    return run_scenario(scenario, rng=spec["seed"])


def run(
    station_counts: Optional[List[int]] = None,
    seed: int = 7,
    workers: int = 0,
    payload_octets: int = 1024,
    data_rate_mbps: int = 24,
    packets_per_station: int = 50,
) -> NetworkComparisonResult:
    """Compare the two control schemes across contention levels, then run
    the rate-controller matrix on ``hidden-node`` and the two feedback
    controllers on ``cross-cell``.

    One engine trial per (scheme, station count) — each simulation is
    seeded independently, so all cells run in parallel.
    """
    from repro.net.scenarios import builtin_scenario
    from repro.ratectl.compare import compare_controllers, controller_summaries

    station_counts = station_counts or [2, 4, 8, 12]
    params = [
        {
            "scheme": scheme,
            "n_stations": n,
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
    cross = controller_summaries(
        builtin_scenario("cross-cell"), ("cos-feedback", "explicit-feedback"),
        n_trials=3, seed=0, workers=workers,
    )
    return NetworkComparisonResult(
        station_counts=list(station_counts),
        explicit=outcomes[0::2],
        cos=outcomes[1::2],
        hidden_node=compare_controllers(
            builtin_scenario("hidden-node"), n_trials=3, seed=0,
            workers=workers,
        ),
        cross_cell={
            name: sum(summary["per_node"][ap]["control_delivered"]
                      for ap in CROSS_CELL_APS)
            for name, summary in cross.items()
        },
    )


def print_result(result: NetworkComparisonResult) -> None:
    from repro.ratectl.compare import COMPARISON_HEADERS, comparison_rows

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
        list(COMPARISON_HEADERS),
        comparison_rows(report),
        title=(f"Rate-controller matrix on {report['scenario']} "
               f"[{report['n_trials']} trials, seed {report['seed']}]"),
    )
    print_table(
        ["controller", "AP-side ctrl delivered"],
        list(result.cross_cell.items()),
        title=("Cross-BSS control on cross-cell (messages the APs consume, "
               "mean of 3 trials, seed 0)"),
    )


def claims(result: NetworkComparisonResult) -> List[Claim]:
    """Free control never costs goodput (no slack), and only explicit
    control pays airtime, at every station count and on ``hidden-node``;
    there CoS feedback also beats the feedback-free samplers.  On
    ``cross-cell``, control crosses between the hidden cells over CoS
    and never over explicit frames."""
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
    cos_ap = result.cross_cell["cos-feedback"]
    exp_ap = result.cross_cell["explicit-feedback"]
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
        Claim("cross_cell_control_crosses",
              cos_ap > 0.0 and exp_ap == 0.0,
              f"CoS {cos_ap:.4g}, explicit {exp_ap:.4g} AP-side messages",
              "CoS > 0, explicit == 0"),
    ]


if __name__ == "__main__":
    print_result(run())
