"""Built-in demo scenarios.

``hidden-node`` mirrors the SiNE linear topology: two uplink stations on
opposite sides of an AP, placed so they carrier-sense the AP but **not
each other** (the pairwise received power lands just below the
carrier-sense threshold).  The near station's frames arrive ~18 dB
hotter than the hidden station's, so when the two overlap at the AP the
near frame rides over the collision (capture) while the hidden frame's
SINR goes deeply negative and its delivery ratio collapses — SINR, not
SNR, decides.

With the default radio (17 dBm TX, -82 dBm carrier sense, path-loss
exponent 3, 46.7 dB at 1 m): the near station at 12 m reaches the AP at
-62 dBm (SNR ≈ 32 dB); the hidden station at 48 m reaches it at -80 dBm
(SNR ≈ 14 dB); the 60 m between the stations attenuates them to
-83 dBm ≈ 1 dB below carrier sense of each other.

``contention`` is the single-collision-domain counterpart: N stations on
a circle around an AP, everyone in everyone's carrier-sense range — the
ring the ``network`` stage (:mod:`repro.experiments.network`) sweeps
station counts over.

``enterprise-grid`` and ``campus-roaming`` are the multi-BSS scale-out
scenarios: a reuse-3 grid of cells with per-station Poisson uplink (the
spatial-culling benchmark substrate), and a line of APs that two
stations walk past end-to-end, roaming cell to cell (the
association/roaming regression scenario).

``cross-cell`` is the Tag-Spotting-style control-beyond-data-range
scenario: two cells 120 m apart, whose APs exchange coordination
traffic.  At that distance the cross-link arrives ~2 dB above noise —
below the 4 dB capture gate, so **no cross-cell data frame ever
decodes**, and below the -82 dBm carrier-sense threshold, so the cells
cannot even hear each other (mutually hidden).  ``cos_overhear=True``
lets a receiver scan the silence pattern of an *undecodable* frame, so
the APs generate cross-cell feedback and embed it; whether it arrives
is the measured CoS curve's call, and at ~2 dB that curve reads 0 —
no cross-cell control message arrives under ``control="cos"`` either
(the ``network`` stage's ``cross_cell_control_crosses`` claim).
Explicit control frames (ordinary data-rate frames at ~2 dB SINR) die
with the data.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.net.scenario import (
    BssSpec,
    FlowSpec,
    MobilitySpec,
    NodeSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.net.topology import RadioSpec

__all__ = [
    "BUILTIN_SCENARIOS",
    "builtin_scenario",
    "hidden_node",
    "contention",
    "enterprise_grid",
    "campus_roaming",
    "cross_cell",
]


def hidden_node(
    control: str = "cos",
    n_packets: int = 900,
    payload_octets: int = 1024,
    duration_us: float = 300_000.0,
) -> ScenarioSpec:
    """The SiNE-style linear hidden-node topology (see module docstring)."""
    return ScenarioSpec(
        name="hidden-node",
        nodes=(
            NodeSpec("ap", 0.0, 0.0),
            NodeSpec("sta_near", 12.0, 0.0),
            NodeSpec("sta_hidden", -48.0, 0.0),
        ),
        flows=(
            FlowSpec(src="sta_near", dst="ap", n_packets=n_packets,
                     payload_octets=payload_octets),
            FlowSpec(src="sta_hidden", dst="ap", n_packets=n_packets,
                     payload_octets=payload_octets),
        ),
        control=control,
        duration_us=duration_us,
    )


def contention(
    control: str = "cos",
    n_stations: int = 4,
    n_packets: int = 50,
    payload_octets: int = 1024,
    radius_m: float = 15.0,
    duration_us: float = 500_000.0,
    data_rate_mbps: int = None,
) -> ScenarioSpec:
    """N stations around an AP, all mutually in carrier-sense range."""
    if n_stations < 1:
        raise ValueError("need at least one station")
    nodes = [NodeSpec("ap", 0.0, 0.0)]
    flows = []
    for i in range(n_stations):
        angle = 2.0 * math.pi * i / n_stations
        name = f"sta{i}"
        nodes.append(NodeSpec(name, radius_m * math.cos(angle),
                              radius_m * math.sin(angle)))
        flows.append(FlowSpec(src=name, dst="ap", n_packets=n_packets,
                              payload_octets=payload_octets))
    return ScenarioSpec(
        name=f"contention-{n_stations}",
        nodes=tuple(nodes),
        flows=tuple(flows),
        control=control,
        duration_us=duration_us,
        data_rate_mbps=data_rate_mbps,
    )


def enterprise_grid(
    control: str = "cos",
    n_aps: int = 4,
    stations_per_ap: int = 15,
    spacing_m: float = 60.0,
    n_channels: int = 3,
    traffic_model: str = "poisson",
    rate_pps: float = 50.0,
    payload_octets: int = 1024,
    duration_us: float = 100_000.0,
    medium_mode: str = "culled",
) -> ScenarioSpec:
    """A reuse-``n_channels`` grid of office cells under Poisson uplink.

    APs sit on a ``ceil(sqrt(n_aps))``-wide square lattice, channels
    assigned ``(row + col) % n_channels`` so neighbouring cells never
    share one.  Each AP serves ``stations_per_ap`` stations ringed
    5–10 m around it, each running an independent ``traffic_model``
    uplink to ``"@ap"``.  The radio uses a denser-walls exponent (3.5),
    which puts the carrier-sense range (~31 m) inside the AP spacing:
    cells contend internally but transmit concurrently across the
    floor — the workload the spatial-culling medium exists for, and the
    substrate the ``net-scaling`` gates of ``benchmarks/gates.py`` sweep
    N over.
    """
    if n_aps < 1:
        raise ValueError("need at least one AP")
    if n_channels < 1:
        raise ValueError("need at least one channel")
    radio = RadioSpec(path_loss_exponent=3.5, interference_floor_dbm=-95.0)
    side = int(math.ceil(math.sqrt(n_aps)))
    nodes: List[NodeSpec] = []
    bsses: List[BssSpec] = []
    traffic: List[TrafficSpec] = []
    for a in range(n_aps):
        row, col = divmod(a, side)
        ap = f"ap{a}"
        ax, ay = col * spacing_m, row * spacing_m
        nodes.append(NodeSpec(ap, ax, ay))
        stations = []
        for j in range(stations_per_ap):
            sta = f"sta{a}_{j}"
            angle = 2.0 * math.pi * j / max(stations_per_ap, 1)
            radius = 5.0 + 2.5 * (j % 3)
            nodes.append(NodeSpec(sta, ax + radius * math.cos(angle),
                                  ay + radius * math.sin(angle)))
            stations.append(sta)
            traffic.append(TrafficSpec(
                src=sta, dst="@ap", model=traffic_model,
                rate_pps=rate_pps, payload_octets=payload_octets,
            ))
        bsses.append(BssSpec(ap=ap, channel=(row + col) % n_channels,
                             stations=tuple(stations)))
    return ScenarioSpec(
        name=f"enterprise-grid-{n_aps * (stations_per_ap + 1)}",
        nodes=tuple(nodes),
        flows=(),
        control=control,
        duration_us=duration_us,
        radio=radio,
        bsses=tuple(bsses),
        traffic=tuple(traffic),
        medium_mode=medium_mode,
    )


def campus_roaming(
    control: str = "cos",
    n_aps: int = 3,
    spacing_m: float = 60.0,
    stations_per_ap: int = 3,
    n_walkers: int = 2,
    rate_pps: float = 40.0,
    walker_rate_pps: float = 300.0,
    payload_octets: int = 512,
    duration_us: float = 400_000.0,
    beacon_interval_us: float = 20_000.0,
    medium_mode: str = "culled",
) -> ScenarioSpec:
    """A corridor of cells that mobile stations walk end-to-end.

    ``n_aps`` APs in a line, one channel each (round-robin over three),
    a few static stations per cell, and ``n_walkers`` stations pacing
    the corridor — odd walkers in the opposite direction.  Walkers send
    CBR uplink to ``"@ap"``, so their traffic follows each hand-off:
    the strongest-AP rule (beacon RSSI beating the serving AP by the
    hysteresis) moves them cell to cell, and ``NetResult.n_roams`` /
    per-station ``roams`` count the hand-offs.  Beacons tick every
    20 ms so a 400 ms walk sees enough of them to roam promptly.
    Walkers stream (300 pps of 512 octets), so a hand-off usually
    finds frames on the air: the case where a retune must leave the
    in-flight frames' interference maps alone.
    """
    if n_aps < 2:
        raise ValueError("roaming needs at least two APs")
    nodes: List[NodeSpec] = []
    bsses: List[BssSpec] = []
    traffic: List[TrafficSpec] = []
    mobility: List[MobilitySpec] = []
    for a in range(n_aps):
        ap = f"ap{a}"
        ax = a * spacing_m
        nodes.append(NodeSpec(ap, ax, 0.0))
        stations = []
        for j in range(stations_per_ap):
            sta = f"sta{a}_{j}"
            angle = 2.0 * math.pi * (j + 0.5) / max(stations_per_ap, 1)
            nodes.append(NodeSpec(sta, ax + 10.0 * math.cos(angle),
                                  10.0 * math.sin(angle)))
            stations.append(sta)
            traffic.append(TrafficSpec(
                src=sta, dst="@ap", model="poisson",
                rate_pps=rate_pps, payload_octets=payload_octets,
            ))
        bsses.append(BssSpec(ap=ap, channel=a % 3, stations=tuple(stations)))
    corridor_m = (n_aps - 1) * spacing_m
    walk_end_us = 0.9 * duration_us
    for w in range(n_walkers):
        name = f"walker{w}"
        y = 6.0 + 2.0 * w
        x0, x1 = (0.0, corridor_m) if w % 2 == 0 else (corridor_m, 0.0)
        nodes.append(NodeSpec(name, x0, y))
        mobility.append(MobilitySpec(
            node=name,
            waypoints=((0.0, x0, y), (walk_end_us, x1, y)),
        ))
        # Walkers start associated to their nearest AP.
        home = 0 if w % 2 == 0 else n_aps - 1
        bsses[home] = BssSpec(
            ap=bsses[home].ap, channel=bsses[home].channel,
            stations=bsses[home].stations + (name,),
        )
        traffic.append(TrafficSpec(
            src=name, dst="@ap", model="cbr",
            rate_pps=walker_rate_pps, payload_octets=payload_octets,
        ))
    return ScenarioSpec(
        name="campus-roaming",
        nodes=tuple(nodes),
        flows=(),
        control=control,
        duration_us=duration_us,
        mobility=tuple(mobility),
        bsses=tuple(bsses),
        traffic=tuple(traffic),
        medium_mode=medium_mode,
        beacon_interval_us=beacon_interval_us,
    )


def cross_cell(
    control: str = "cos",
    separation_m: float = 120.0,
    n_uplink_packets: int = 400,
    n_cross_packets: int = 120,
    payload_octets: int = 1024,
    duration_us: float = 300_000.0,
) -> ScenarioSpec:
    """Two mutually-hidden cells whose APs coordinate across the gap.

    Intra-cell uplinks carry the payload traffic (they are the OFDM
    frames whose silences the CoS plane rides); the AP↔AP flows model a
    thin coordination channel (channel selection, load balancing) whose
    *data* frames can never decode — see the module docstring for the
    link budget.  ``cos_overhear=True`` is what lets the far AP read
    the silences off frames it cannot decode.
    """
    return ScenarioSpec(
        name="cross-cell",
        nodes=(
            NodeSpec("ap_west", 0.0, 0.0),
            NodeSpec("sta_west", 0.0, 10.0),
            NodeSpec("ap_east", separation_m, 0.0),
            NodeSpec("sta_east", separation_m, 10.0),
        ),
        flows=(
            FlowSpec(src="sta_west", dst="ap_west",
                     n_packets=n_uplink_packets,
                     payload_octets=payload_octets, interval_us=700.0),
            FlowSpec(src="sta_east", dst="ap_east",
                     n_packets=n_uplink_packets,
                     payload_octets=payload_octets, interval_us=700.0),
            FlowSpec(src="ap_west", dst="ap_east",
                     n_packets=n_cross_packets,
                     payload_octets=256, interval_us=2500.0),
            FlowSpec(src="ap_east", dst="ap_west",
                     n_packets=n_cross_packets,
                     payload_octets=256, interval_us=2500.0,
                     start_us=1250.0),
        ),
        control=control,
        duration_us=duration_us,
        cos_overhear=True,
    )


BUILTIN_SCENARIOS: Dict[str, Callable[..., ScenarioSpec]] = {
    "hidden-node": hidden_node,
    "contention": contention,
    "enterprise-grid": enterprise_grid,
    "campus-roaming": campus_roaming,
    "cross-cell": cross_cell,
}


def builtin_scenario(name: str, **overrides) -> ScenarioSpec:
    """Instantiate a built-in scenario by name."""
    try:
        factory = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; built-ins: {sorted(BUILTIN_SCENARIOS)}"
        ) from None
    return factory(**overrides)
