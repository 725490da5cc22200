"""Network-level experiment: the system-wide value of free control.

Not a paper figure — the paper evaluates CoS at the link level — but the
quantitative version of its motivation (§I): control messages carried by
explicit frames consume airtime and contention slots; CoS carries them
for free.  The harness sweeps contention (station count) and reports
goodput, control airtime share, and control latency for both schemes.

Two backends price the contention:

* ``fast`` (default) — the original single-collision-domain slotted DCF
  model (:func:`repro.mac.overhead.run_overhead_comparison`).  Every
  station hears every other; collisions are perfectly symmetric.
* ``net`` — the spatial event-driven simulator (:mod:`repro.net`): the
  same contention ring rendered as a :func:`repro.net.scenarios
  .contention` scenario, with log-distance path loss, SINR + capture
  reception, and per-node DCF machines.  Slower, but control frames pay
  their airtime in a physically grounded medium.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import engine
from repro.experiments.common import Claim, check_all, print_table
from repro.mac.overhead import ControlScheme, OverheadResult, run_overhead_comparison

__all__ = [
    "GOODPUT_REL_TOL",
    "NetSchemeResult",
    "NetworkComparisonResult",
    "run",
    "print_result",
    "claims",
]

#: Relative slack when asserting "CoS never loses goodput": CoS may trail
#: explicit by at most this fraction before we call it a loss.  Distinct
#: seeds make the two schemes' contention realisations non-identical, so
#: an exact (or absolute-epsilon) comparison is the wrong tool.
GOODPUT_REL_TOL = 1e-6


@dataclass
class NetSchemeResult:
    """Adapter giving a :class:`repro.net.NetResult` the fast-backend shape.

    ``NetworkComparisonResult`` only needs ``goodput_mbps``,
    ``control_airtime_fraction`` and ``mean_control_latency_us`` from a
    scheme outcome; this wraps the spatial simulator's result so both
    backends duck-type identically (the full ``NetResult`` stays
    reachable via ``.net``).
    """

    net: object  # repro.net.NetResult

    @property
    def goodput_mbps(self) -> float:
        return self.net.aggregate_goodput_mbps

    @property
    def control_airtime_fraction(self) -> float:
        return self.net.control_airtime_fraction

    @property
    def mean_control_latency_us(self) -> float:
        latencies = [
            lat
            for stats in self.net.per_node.values()
            for lat in stats.control_latencies_us
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)


@dataclass
class NetworkComparisonResult:
    """Per-contention-level pairs of (explicit, cos) outcomes."""

    station_counts: List[int] = field(default_factory=list)
    explicit: List[object] = field(default_factory=list)
    cos: List[object] = field(default_factory=list)
    backend: str = "fast"

    def goodput_violations(
        self, rel_tol: float = GOODPUT_REL_TOL
    ) -> List[Tuple[int, float, float]]:
        """Station counts where CoS goodput trails explicit beyond tolerance.

        Returns ``(n_stations, explicit_mbps, cos_mbps)`` triples.
        """
        return [
            (n, e.goodput_mbps, c.goodput_mbps)
            for n, e, c in zip(self.station_counts, self.explicit, self.cos)
            if c.goodput_mbps < e.goodput_mbps * (1.0 - rel_tol)
        ]

    def cos_never_loses_goodput(self, rel_tol: float = GOODPUT_REL_TOL) -> bool:
        return not self.goodput_violations(rel_tol)

    def explicit_control_airtime(self) -> float:
        """Mean control airtime fraction paid by the explicit scheme."""
        if not self.explicit:
            return 0.0
        return sum(r.control_airtime_fraction for r in self.explicit) / len(self.explicit)


def _trial(spec: engine.TrialSpec) -> OverheadResult:
    """One slotted DCF simulation: a (scheme, contention level) pair."""
    kwargs = dict(
        n_stations=spec["n_stations"],
        packets_per_station=spec["packets_per_station"],
        payload_octets=spec["payload_octets"],
        data_rate_mbps=spec["data_rate_mbps"],
        seed=spec["seed"],
    )
    if spec["scheme"] == ControlScheme.COS:
        return run_overhead_comparison(
            ControlScheme.COS,
            cos_delivery_prob=spec["cos_delivery_prob"],
            **kwargs,
        )
    return run_overhead_comparison(ControlScheme.EXPLICIT, **kwargs)


def _net_trial(spec: engine.TrialSpec) -> NetSchemeResult:
    """One spatial simulation of the contention ring (module-level: picklable)."""
    from repro.net import run_scenario
    from repro.net.scenarios import contention

    scenario = contention(
        control=str(spec["scheme"].value
                    if isinstance(spec["scheme"], ControlScheme)
                    else spec["scheme"]),
        n_stations=spec["n_stations"],
        n_packets=spec["packets_per_station"],
        payload_octets=spec["payload_octets"],
        data_rate_mbps=spec["data_rate_mbps"],
    )
    if spec["cos_delivery_prob"] is not None:
        scenario = dataclasses.replace(
            scenario, cos_delivery_prob=spec["cos_delivery_prob"]
        )
    return NetSchemeResult(net=run_scenario(scenario, rng=spec["seed"]))


def run(
    station_counts: Optional[List[int]] = None,
    cos_delivery_prob: float = 0.97,
    seed: int = 7,
    workers: Optional[int] = None,
    payload_octets: int = 1024,
    data_rate_mbps: int = 24,
    packets_per_station: int = 50,
    backend: str = "fast",
) -> NetworkComparisonResult:
    """Compare the two control schemes across contention levels.

    One engine trial per (scheme, station count) — each simulation is
    seeded independently, so all cells run in parallel.  ``backend``
    selects the contention model: ``"fast"`` (slotted single-domain DCF)
    or ``"net"`` (spatial SINR simulator, see module docstring).
    """
    if backend not in ("fast", "net"):
        raise ValueError(f"unknown backend {backend!r}; use 'fast' or 'net'")
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
        for scheme in (ControlScheme.EXPLICIT, ControlScheme.COS)
    ]
    trial = _trial if backend == "fast" else _net_trial
    outcomes = engine.run_sweep(
        params, trial, seed=seed, workers=workers, label=f"network-{backend}"
    )

    result = NetworkComparisonResult(
        station_counts=list(station_counts), backend=backend
    )
    for i in range(len(station_counts)):
        result.explicit.append(outcomes[2 * i])
        result.cos.append(outcomes[2 * i + 1])
    return result


def print_result(result: NetworkComparisonResult) -> None:
    rows = []
    for n, e, c in zip(result.station_counts, result.explicit, result.cos):
        rows.append(
            (
                n,
                e.goodput_mbps,
                c.goodput_mbps,
                e.control_airtime_fraction * 100,
                e.mean_control_latency_us / 1e3,
                c.mean_control_latency_us / 1e3,
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
        title=(
            "Network comparison — explicit control frames vs CoS piggyback "
            f"[{result.backend} backend]"
        ),
    )


def claims(result: NetworkComparisonResult) -> List[Claim]:
    """Free control never costs goodput (no slack), and only explicit
    control pays airtime, at every station count."""
    rows = list(zip(result.station_counts, result.explicit, result.cos))
    goodput = check_all("cos_never_loses_goodput", ">=", [
        (f"{n} stations", c.goodput_mbps, e.goodput_mbps) for n, e, c in rows
    ])
    return [
        goodput._replace(holds=result.cos_never_loses_goodput(rel_tol=0.0)),
        check_all("cos_control_airtime", "==", [
            (f"{n} stations", c.control_airtime_fraction, 0.0) for n, _, c in rows
        ]),
        check_all("explicit_control_airtime", ">", [
            (f"{n} stations", e.control_airtime_fraction, 0.0) for n, e, _ in rows
        ]),
    ]


if __name__ == "__main__":
    print_result(run())
