"""``repro.net`` — event-driven multi-node WLAN simulation.

The link-level layers (``phy``/``channel``/``cos``) evaluate one
transmitter-receiver pair; ``mac.dcf`` prices airtime in a single
collision domain.  This package opens the workload the paper's
motivation actually lives in: *many* stations with 2-D positions,
log-distance path loss, reception decided by **SINR with a capture
threshold** (so hidden-node collisions and capture fall out of the
geometry), per-node DCF state machines driven by a discrete-event
scheduler, and a control plane that delivers rate-adaptation feedback
either as explicit contending frames or for free inside CoS silence
intervals.

Multi-BSS scale-out: scenarios may declare ``bsses`` (AP + channel +
member stations) and per-node ``traffic`` generators; the medium then
runs beacons, association, strongest-AP roaming, adjacent-channel
rejection, and — in its default ``"culled"`` mode — grid-indexed
interference culling that keeps per-attempt cost sub-linear in node
count (``"dense-exact"`` preserves the all-pairs semantics for
equivalence testing).

Layering (top to bottom)::

    simulator   NetSimulator / run_scenario / run_scenario_sweep
    lens        NetLens: airtime ledger and net.* event records
    bss         BssRuntime: beacons, association, strongest-AP roaming
    scenario    declarative ScenarioSpec (JSON-serialisable, picklable)
    traffic     arrival synthesis: Poisson / bursty on-off / CBR
    control     ControlPlane (+ per-BSS ControlRouter): explicit vs CoS
    mac         NodeMac: per-node DCF (shared BackoffState with mac.dcf)
    medium      Medium: active transmissions, carrier sense, SINR at rx
    sinr        ReceptionModel: capture threshold + measured SINR->PRR draw
    topology    Topology: positions, mobility, path loss, grid index
    scheduler   EventScheduler: deterministic heap calendar queue
"""

from repro.net.scheduler import EventScheduler
from repro.net.topology import GridIndex, RadioSpec, Topology, Waypoint
from repro.net.sinr import ReceptionModel, sinr_db
from repro.net.medium import MEDIUM_MODES, Medium, Transmission
from repro.net.mac import NetFrame, NodeMac
from repro.net.control import ControlMessage, ControlPlane, ControlRouter
from repro.net.bss import BssRuntime
from repro.net.traffic import TRAFFIC_MODELS, arrival_times
from repro.net.scenario import (
    BssSpec,
    FlowSpec,
    InterfererSpec,
    MobilitySpec,
    NodeSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.net.lens import NetLens
from repro.net.scenarios import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    campus_roaming,
    contention,
    cross_cell,
    enterprise_grid,
    hidden_node,
)
from repro.net.simulator import (
    NetResult,
    NetSimulator,
    NodeStats,
    run_scenario,
    run_scenario_sweep,
    summarize_results,
)

__all__ = [
    "EventScheduler",
    "GridIndex",
    "RadioSpec",
    "Topology",
    "Waypoint",
    "ReceptionModel",
    "sinr_db",
    "MEDIUM_MODES",
    "Medium",
    "Transmission",
    "NetFrame",
    "NodeMac",
    "ControlMessage",
    "ControlPlane",
    "ControlRouter",
    "BssRuntime",
    "TRAFFIC_MODELS",
    "arrival_times",
    "NodeSpec",
    "FlowSpec",
    "MobilitySpec",
    "InterfererSpec",
    "BssSpec",
    "TrafficSpec",
    "ScenarioSpec",
    "NetLens",
    "BUILTIN_SCENARIOS",
    "builtin_scenario",
    "hidden_node",
    "contention",
    "enterprise_grid",
    "campus_roaming",
    "cross_cell",
    "NetResult",
    "NetSimulator",
    "NodeStats",
    "run_scenario",
    "run_scenario_sweep",
    "summarize_results",
]
