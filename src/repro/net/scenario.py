"""Declarative scenario specifications (JSON-serialisable, picklable).

A :class:`ScenarioSpec` fully determines a simulation up to the random
seed: topology (node positions + radio model), traffic flows, mobility
waypoints, pulse interferers, and the control-plane configuration.  The
engine sweeps scenarios by putting the spec itself in the trial params
(dataclasses pickle cleanly), and the ``repro net`` CLI round-trips them
through JSON — ``ScenarioSpec.load(path)`` / ``save(path)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.net.medium import MEDIUM_MODES
from repro.net.topology import RadioSpec, Topology, Waypoint
from repro.net.traffic import TRAFFIC_MODELS
from repro.phy.params import RATE_TABLE
from repro.ratectl import CONTROLLERS, available_controllers

__all__ = [
    "NodeSpec",
    "FlowSpec",
    "MobilitySpec",
    "InterfererSpec",
    "BssSpec",
    "TrafficSpec",
    "ScenarioSpec",
]


def _require_finite_positive(name: str, value: float) -> None:
    """Reject zero, negative, NaN and infinite values of field ``name``."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_finite(name: str, value: float) -> None:
    """Reject NaN and infinite values of field ``name``."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_finite_non_negative(name: str, value: float) -> None:
    """Reject negative, NaN and infinite values of field ``name``."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(
            f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class NodeSpec:
    """A station (or AP — the MAC does not distinguish) at ``(x, y)`` metres."""

    name: str
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class FlowSpec:
    """A unicast traffic flow.

    ``interval_us == 0`` means fully backlogged: every packet is queued
    at ``start_us``.  Otherwise one packet arrives each interval.
    """

    src: str
    dst: str
    n_packets: int = 50
    payload_octets: int = 1024
    interval_us: float = 0.0
    start_us: float = 0.0


@dataclass(frozen=True)
class MobilitySpec:
    """Waypoints ``(t_us, x, y)`` for one node; linearly interpolated."""

    node: str
    waypoints: Tuple[Tuple[float, float, float], ...] = ()


@dataclass(frozen=True)
class InterfererSpec:
    """A ``PulseInterferer``-style co-channel burst source at a position.

    Every ``period_us`` the source starts, with probability
    ``probability``, a burst of ``burst_us`` at ``power_dbm`` — the
    network-scale analogue of :class:`repro.channel.interference
    .PulseInterferer`'s random symbol-length pulses.
    """

    name: str
    x: float = 0.0
    y: float = 0.0
    power_dbm: float = 17.0
    burst_us: float = 200.0
    period_us: float = 2000.0
    probability: float = 0.3
    start_us: float = 0.0


@dataclass(frozen=True)
class BssSpec:
    """One cell: an AP, its channel, and the stations that start on it.

    Stations may roam away at run time (strongest-AP hand-off, see
    :mod:`repro.net.bss`); non-member stations associate with the first
    AP they hear.  Channel indices are abstract: adjacent indices leak
    into each other at ``RadioSpec.adjacent_rejection_db`` per step.
    """

    ap: str
    channel: int = 0
    stations: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TrafficSpec:
    """One node's generated traffic (see :mod:`repro.net.traffic`).

    ``dst="@ap"`` targets the source's *current* serving AP at each
    arrival instant — the roaming-aware uplink; it requires the
    scenario to define BSSes.
    """

    src: str
    dst: str = "@ap"
    model: str = "poisson"  # "poisson" | "onoff" | "cbr"
    rate_pps: float = 100.0
    payload_octets: int = 1024
    start_us: float = 0.0
    stop_us: Optional[float] = None
    burst_on_us: float = 10_000.0
    burst_off_us: float = 40_000.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a :class:`repro.net.simulator.NetSimulator` needs."""

    name: str
    nodes: Tuple[NodeSpec, ...]
    flows: Tuple[FlowSpec, ...]
    control: str = "cos"  # "cos" | "explicit"
    duration_us: float = 300_000.0
    radio: RadioSpec = field(default_factory=RadioSpec)
    mobility: Tuple[MobilitySpec, ...] = ()
    interferers: Tuple[InterfererSpec, ...] = ()
    data_rate_mbps: Optional[int] = None  # None = SINR-adaptive
    max_embed_per_frame: int = 4
    bsses: Tuple[BssSpec, ...] = ()
    traffic: Tuple[TrafficSpec, ...] = ()
    medium_mode: str = "culled"  # "culled" | "dense-exact"
    beacon_interval_us: float = 102_400.0
    controller: str = "snr-threshold"  # a repro.ratectl controller name
    cos_overhear: bool = False  # Tag-Spotting: decode CoS below data SINR

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        for node in self.nodes:
            _require_finite(f"node {node.name} x", node.x)
            _require_finite(f"node {node.name} y", node.y)
        known = set(names)
        for flow in self.flows:
            if flow.src not in known or flow.dst not in known:
                raise ValueError(
                    f"flow {flow.src}->{flow.dst} references unknown nodes"
                )
            if flow.src == flow.dst:
                raise ValueError(f"flow {flow.src}->{flow.dst} is a self-loop")
            for name in ("interval_us", "start_us"):
                _require_finite_non_negative(f"flow {name}",
                                             getattr(flow, name))
        for mob in self.mobility:
            if mob.node not in known:
                raise ValueError(f"mobility for unknown node {mob.node!r}")
            for t_us, x, y in mob.waypoints:
                _require_finite(f"mobility {mob.node} waypoint t_us", t_us)
                _require_finite(f"mobility {mob.node} waypoint x", x)
                _require_finite(f"mobility {mob.node} waypoint y", y)
        for i in self.interferers:
            for name in ("x", "y", "power_dbm"):
                _require_finite(f"interferer {i.name} {name}", getattr(i, name))
            _require_finite_positive(f"interferer {i.name} burst_us", i.burst_us)
            _require_finite_positive(f"interferer {i.name} period_us",
                                     i.period_us)
            if not 0.0 <= i.probability <= 1.0:
                raise ValueError(f"interferer {i.name} probability must be "
                                 f"in [0, 1], got {i.probability!r}")
            _require_finite_non_negative(f"interferer {i.name} start_us",
                                         i.start_us)
        if self.control not in ("explicit", "cos"):
            raise ValueError(f"unknown control mode {self.control!r}")
        if self.data_rate_mbps is not None and self.data_rate_mbps not in RATE_TABLE:
            raise ValueError(
                f"{self.data_rate_mbps} Mbps is not an 802.11a rate"
            )
        _require_finite_positive("duration_us", self.duration_us)
        if self.medium_mode not in MEDIUM_MODES:
            raise ValueError(f"unknown medium_mode {self.medium_mode!r}")
        aps = [b.ap for b in self.bsses]
        if len(set(aps)) != len(aps):
            raise ValueError("BSS AP names must be unique")
        ap_set = set(aps)
        members = set()
        for bss in self.bsses:
            if bss.ap not in known:
                raise ValueError(f"BSS AP {bss.ap!r} is not a node")
            if bss.channel < 0:
                raise ValueError("BSS channel must be >= 0")
            for sta in bss.stations:
                if sta not in known:
                    raise ValueError(
                        f"BSS {bss.ap!r} member {sta!r} is not a node"
                    )
                if sta in ap_set:
                    raise ValueError(f"{sta!r} cannot be both AP and station")
                if sta in members:
                    raise ValueError(
                        f"station {sta!r} is a member of multiple BSSes"
                    )
                members.add(sta)
        for t in self.traffic:
            if t.src not in known:
                raise ValueError(f"traffic source {t.src!r} is not a node")
            if t.model not in TRAFFIC_MODELS:
                raise ValueError(f"unknown traffic model {t.model!r}")
            _require_finite_positive("traffic rate_pps", t.rate_pps)
            _require_finite_non_negative("traffic start_us", t.start_us)
            if t.stop_us is not None:
                _require_finite_non_negative("traffic stop_us", t.stop_us)
            if t.model == "onoff":
                _require_finite_positive("onoff burst_on_us", t.burst_on_us)
                _require_finite_positive("onoff burst_off_us", t.burst_off_us)
            if t.dst == "@ap":
                if not self.bsses:
                    raise ValueError(
                        '"@ap" traffic requires the scenario to define bsses'
                    )
            elif t.dst not in known:
                raise ValueError(f"traffic {t.src}->{t.dst} targets unknown node")
            if t.dst == t.src:
                raise ValueError(f"traffic {t.src}->{t.dst} is a self-loop")
        _require_finite_positive("beacon_interval_us", self.beacon_interval_us)
        if self.controller not in CONTROLLERS:
            raise ValueError(
                f"unknown rate controller {self.controller!r}: field "
                f'"controller" must name one (default "snr-threshold"); '
                f"available: {', '.join(available_controllers())}"
            )
        if not self.max_embed_per_frame >= 1:
            raise ValueError(f"max_embed_per_frame must be at least 1, "
                             f"got {self.max_embed_per_frame!r}")

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------

    def topology(self) -> Topology:
        positions = {n.name: (n.x, n.y) for n in self.nodes}
        for interferer in self.interferers:
            if interferer.name in positions:
                raise ValueError(
                    f"interferer name {interferer.name!r} collides with a node"
                )
            positions[interferer.name] = (interferer.x, interferer.y)
        mobility = {
            m.node: [Waypoint(t, x, y) for (t, x, y) in m.waypoints]
            for m in self.mobility
        }
        return Topology(positions, radio=self.radio, mobility=mobility)

    def with_control(self, control: str) -> "ScenarioSpec":
        """The same scenario under the other control scheme."""
        return dataclasses.replace(self, control=control)

    def with_medium(self, medium_mode: str) -> "ScenarioSpec":
        """The same scenario under the other medium mode."""
        return dataclasses.replace(self, medium_mode=medium_mode)

    def with_controller(self, controller: str) -> "ScenarioSpec":
        """The same scenario under another rate controller."""
        return dataclasses.replace(self, controller=controller)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioSpec":
        data = dict(data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        data["nodes"] = tuple(NodeSpec(**n) for n in data.get("nodes", ()))
        data["flows"] = tuple(FlowSpec(**f) for f in data.get("flows", ()))
        if "radio" in data and isinstance(data["radio"], dict):
            data["radio"] = RadioSpec(**data["radio"])
        data["mobility"] = tuple(
            MobilitySpec(node=m["node"],
                         waypoints=tuple(tuple(w) for w in m["waypoints"]))
            for m in data.get("mobility", ())
        )
        data["interferers"] = tuple(
            InterfererSpec(**i) for i in data.get("interferers", ())
        )
        data["bsses"] = tuple(
            BssSpec(ap=b["ap"], channel=b.get("channel", 0),
                    stations=tuple(b.get("stations", ())))
            for b in data.get("bsses", ())
        )
        data["traffic"] = tuple(
            TrafficSpec(**t) for t in data.get("traffic", ())
        )
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
