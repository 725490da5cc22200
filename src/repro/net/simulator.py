"""Scenario execution: wire the layers together, collect per-node stats.

:class:`NetSimulator` instantiates the stack for one
:class:`~repro.net.scenario.ScenarioSpec` — scheduler, topology, medium,
one :class:`~repro.net.mac.NodeMac` per node, the control plane, traffic
sources, interferers — runs it, and returns a picklable
:class:`NetResult`.

Sweeps go through :mod:`repro.engine`: :func:`run_scenario_sweep` runs N
independent trials of a scenario with per-trial ``SeedSequence`` spawned
seeds, so serial and process-pool executions are bit-for-bit identical
(the ``net`` determinism contract is the engine's, inherited wholesale).

The culled medium's frozen source maps depend on the topology, not on
the seed, so every trial of one topology in a process shares them
(:func:`source_maps_for`): each map is built on first use and is the
same dict, in the same order, that a fresh medium would build.

**Random streams.**  A draw is named by what it is for, never by when it
happens.  Every random draw of a run comes from a stream named by a
purpose and an owner under the trial's root seed
(:func:`repro.utils.rng.named_rng`, key ``purpose``, ``owner=``):

* ``BACKOFF`` — one per MAC;
* ``FATES`` — one per receiver, one draw per reception addressed to it;
* ``COS`` — one per ``(src, dst)`` link, one draw per embedded message,
  on decoded and overheard carriers alike;
* ``SAMPLING`` — one per controller instance (a BSS's plane: its index
  in ``spec.bsses``; the default plane: ``len(spec.bsses)``);
* ``INTERFERER`` — one per interferer;
* ``ARRIVALS`` — one per traffic entry (its index in ``spec.traffic``).

Nodes, links and interferers are keyed by a digest of their names, so
adding or removing one leaves every other owner's streams alone.

So two runs of one seed that differ only in the controller or the
control mode see the same arrivals and interferer bursts, and the k-th
reception at a receiver takes the k-th draw of its stream in both:
controller rows are paired, and a model change moves only its own
draws.  Streams are built on first draw.  Only this module names them;
the components take the streams they draw from.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import engine
from repro.engine.spec import TrialSpec
from repro.net.bss import BssRuntime
from repro.net.control import ControlPlane, ControlRouter
from repro.net.lens import NetLens
from repro.net.mac import NetFrame, NodeMac
from repro.net.medium import Medium, SourceMaps, Transmission, lru_get
from repro.net.scenario import (
    FlowSpec,
    InterfererSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.net.scheduler import EventScheduler
from repro.net.sinr import ReceptionModel
from repro.net.traffic import arrival_times
from repro.obs.trace import current_tracer, span
from repro.ratectl import CONTROLLERS, make_controller
from repro.utils.rng import RngLike, named_rng

__all__ = [
    "NodeStats",
    "NetResult",
    "NetSimulator",
    "run_scenario",
    "run_scenario_sweep",
    "clear_source_maps",
    "source_maps_for",
    "summarize_results",
]

#: What a stream is for: the first element of its key under the trial's
#: root seed (see the module docstring).
BACKOFF, FATES, COS, SAMPLING, INTERFERER, ARRIVALS = range(6)

#: Topologies whose source maps one process keeps (see
#: :func:`source_maps_for`).
MAX_SPECS = 4

#: Topology key -> its :class:`~repro.net.medium.SourceMaps`, least
#: recently used first.
_SOURCE_MAPS: OrderedDict = OrderedDict()


def source_maps_for(spec: ScenarioSpec) -> SourceMaps:
    """The frozen source maps shared by every culled run of ``spec``'s topology.

    Keyed by what a map depends on besides the channel plan and the MACs,
    which :class:`~repro.net.medium.SourceMaps` keys its tables by: the
    nodes, the interferers' positions, the radio and the mobility.  Not
    the controller, traffic, seed or duration, so ``repro net compare``'s
    controllers share maps too.  At most :data:`MAX_SPECS` topologies
    are kept, the least recently used dropped first.
    """
    key = (
        spec.nodes,
        tuple((i.name, i.x, i.y) for i in spec.interferers),
        spec.radio,
        tuple((m.node, tuple(map(tuple, m.waypoints)))
              for m in spec.mobility),
    )
    return lru_get(_SOURCE_MAPS, key, SourceMaps, MAX_SPECS)


def clear_source_maps() -> None:
    """Drop every topology's source maps: the next run builds its own."""
    _SOURCE_MAPS.clear()


@dataclass
class NodeStats:
    """Per-node outcomes of one scenario run (all fields picklable)."""

    name: str
    data_generated: int = 0
    data_attempts: int = 0
    data_rx_ok: int = 0
    data_delivered: int = 0
    data_dropped: int = 0
    failures: int = 0  # ACK timeouts (collisions + channel losses)
    payload_bits_delivered: int = 0
    control_generated: int = 0
    control_delivered: int = 0
    roams: int = 0
    control_latencies_us: List[float] = field(default_factory=list)
    sinr_samples_db: List[float] = field(default_factory=list)
    loss_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        """Per-attempt success: decoded receptions / transmission attempts."""
        if self.data_attempts == 0:
            return 0.0
        return self.data_rx_ok / self.data_attempts

    @property
    def completion_ratio(self) -> float:
        """Delivered frames / generated frames (retries collapse into one)."""
        if self.data_generated == 0:
            return 0.0
        return self.data_delivered / self.data_generated

    @property
    def mean_control_latency_us(self) -> float:
        if not self.control_latencies_us:
            return 0.0
        return float(_f64(self.control_latencies_us).mean())

    @property
    def mean_sinr_db(self) -> Optional[float]:
        """Mean per-attempt SINR of this node's data frames (None: no samples).

        ``None`` rather than NaN so exported summaries stay strict JSON.
        """
        return self.sinr_mean_min_db()[0]

    @property
    def min_sinr_db(self) -> Optional[float]:
        return self.sinr_mean_min_db()[1]

    def sinr_mean_min_db(self) -> Tuple[Optional[float], Optional[float]]:
        """``(mean_sinr_db, min_sinr_db)`` from one array conversion."""
        if not self.sinr_samples_db:
            return None, None
        samples = _f64(self.sinr_samples_db)
        return float(samples.mean()), float(samples.min())


def _f64(values: List[float]) -> np.ndarray:
    """``values`` as a float64 array (``fromiter`` with a count is the
    fastest conversion of a long list of floats)."""
    return np.fromiter(values, np.float64, len(values))


@dataclass
class NetResult:
    """Everything one scenario run produced.

    ``ledger`` / ``events`` are populated only when the run was observed
    by a :class:`~repro.net.lens.NetLens` (plain dicts, so they survive
    pickling across process-pool sweep workers; neither carries wall
    time, so a cached or pooled result equals a fresh serial one).
    """

    scenario: str
    control: str
    duration_us: float
    elapsed_us: float
    per_node: Dict[str, NodeStats]
    airtime_us: Dict[str, float]
    n_events: int
    controller: str
    n_roams: int = 0
    associations: Optional[Dict[str, str]] = None
    ledger: Optional[Dict] = None
    events: Optional[List[Dict]] = None

    def goodput_mbps(self, node: str) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.per_node[node].payload_bits_delivered / self.elapsed_us

    @property
    def senders(self) -> List[str]:
        return [n for n, s in self.per_node.items() if s.data_generated > 0]

    @property
    def aggregate_goodput_mbps(self) -> float:
        return sum(self.goodput_mbps(n) for n in self.per_node)

    @property
    def fairness(self) -> float:
        """Jain's index over the senders' goodputs (1.0 = perfectly fair)."""
        xs = [self.goodput_mbps(n) for n in self.senders]
        if not xs or all(x == 0 for x in xs):
            return 1.0
        return float(sum(xs) ** 2 / (len(xs) * sum(x * x for x in xs)))

    @property
    def control_airtime_fraction(self) -> float:
        busy = sum(v for k, v in self.airtime_us.items() if k != "interference")
        if busy == 0:
            return 0.0
        return self.airtime_us.get("control", 0.0) / busy

    @property
    def collisions(self) -> int:
        return sum(s.failures for s in self.per_node.values())

    def to_dict(self) -> Dict:
        """The canonical JSON shape — CLI ``--json``, sweep summaries, and
        tests all derive from this one method so exported fields never
        drift between surfaces."""
        per_node = {}
        for name, stats in self.per_node.items():
            mean_sinr, min_sinr = stats.sinr_mean_min_db()
            per_node[name] = {
                "goodput_mbps": self.goodput_mbps(name),
                "delivery_ratio": stats.delivery_ratio,
                "completion_ratio": stats.completion_ratio,
                "data_generated": stats.data_generated,
                "data_attempts": stats.data_attempts,
                "data_delivered": stats.data_delivered,
                "data_dropped": stats.data_dropped,
                "failures": stats.failures,
                "control_generated": stats.control_generated,
                "control_delivered": stats.control_delivered,
                "roams": stats.roams,
                "mean_control_latency_us": stats.mean_control_latency_us,
                "mean_sinr_db": mean_sinr,
                "min_sinr_db": min_sinr,
                "loss_reasons": dict(stats.loss_reasons),
            }
        out = {
            "scenario": self.scenario,
            "control": self.control,
            "duration_us": self.duration_us,
            "elapsed_us": self.elapsed_us,
            "aggregate_goodput_mbps": self.aggregate_goodput_mbps,
            "fairness": self.fairness,
            "collisions": self.collisions,
            "control_airtime_fraction": self.control_airtime_fraction,
            "airtime_us": dict(self.airtime_us),
            "n_events": self.n_events,
            "per_node": per_node,
        }
        if self.associations is not None:
            out["n_roams"] = self.n_roams
            out["associations"] = dict(self.associations)
        out["controller"] = self.controller
        if self.ledger is not None:
            out["ledger"] = self.ledger
        return out


class _Collector:
    """Mutation sink the MAC / medium / control plane report into."""

    def __init__(self, node_names) -> None:
        self.nodes: Dict[str, NodeStats] = {
            name: NodeStats(name=name) for name in node_names
        }
        self.last_activity_us = 0.0

    def on_generated(self, name: str) -> None:
        self.nodes[name].data_generated += 1

    def on_attempt(self, name: str, kind: str) -> None:
        if kind == "data":
            self.nodes[name].data_attempts += 1

    def on_failure(self, name: str, kind: str) -> None:
        self.nodes[name].failures += 1

    def on_drop(self, name: str, frame: NetFrame, now: float) -> None:
        if frame.kind == "data":
            self.nodes[name].data_dropped += 1
        self.last_activity_us = max(self.last_activity_us, now)

    def on_delivered(self, name: str, frame: NetFrame, now: float) -> None:
        stats = self.nodes[name]
        if frame.kind == "data":
            stats.data_delivered += 1
            stats.payload_bits_delivered += frame.payload_bits
        self.last_activity_us = max(self.last_activity_us, now)

    def on_outcome(self, tx: Transmission, ok: bool, sinr_db: float,
                   reason: str) -> None:
        """Per-reception-attempt record, attributed to the transmitter."""
        stats = self.nodes.get(tx.src)
        if stats is None or tx.kind != "data":
            return
        stats.sinr_samples_db.append(float(sinr_db))
        if ok:
            stats.data_rx_ok += 1
        else:
            stats.loss_reasons[reason] = stats.loss_reasons.get(reason, 0) + 1

    def on_control_generated(self, msg) -> None:
        self.nodes[msg.dst].control_generated += 1

    def on_control_delivered(self, msg, now: float) -> None:
        stats = self.nodes[msg.dst]
        stats.control_delivered += 1
        stats.control_latencies_us.append(now - msg.created_us)

    def on_roam(self, name: str) -> None:
        self.nodes[name].roams += 1


class _Streams(dict):
    """One purpose's streams, owner -> Generator, each built on first use."""

    def __init__(self, root: np.random.SeedSequence, purpose: int,
                 key: Callable[[object], int]) -> None:
        super().__init__()
        self._root = root
        self._purpose = purpose
        self._key = key  # owner -> its integer key

    def __missing__(self, owner) -> np.random.Generator:
        rng = self[owner] = named_rng(self._root, self._purpose,
                                      owner=self._key(owner))
        return rng


@functools.lru_cache(maxsize=4096)
def _name_key(*names: str) -> int:
    """The stream key of a node, an interferer or a link (two node
    names): a 64-bit digest of the names (``hash`` is salted per
    process, which would break serial ≡ pool).  Cached: every trial of
    a spec asks for the same names."""
    return int.from_bytes(hashlib.blake2b(
        "\0".join(names).encode("utf-8"), digest_size=8).digest(), "big")


def _root_seed(rng: Union[RngLike, np.random.SeedSequence]
               ) -> np.random.SeedSequence:
    """The root every stream of a run is named under: ``rng`` itself, the
    ``SeedSequence`` of an int (or fresh entropy), or one derived once
    from a caller's Generator."""
    if isinstance(rng, np.random.SeedSequence):
        return rng
    if isinstance(rng, np.random.Generator):
        return np.random.SeedSequence(int(rng.integers(2**63)))
    return np.random.SeedSequence(rng)


class NetSimulator:
    """One scenario, one root seed, one run.

    ``rng`` is the root seed the run's streams are named under (see the
    module docstring): an int, ``None``, a ``SeedSequence``, or a
    Generator to derive one from.  ``lens`` optionally attaches a
    :class:`~repro.net.lens.NetLens` for the airtime ledger and event
    records; an observed run is bit-for-bit identical to an unobserved
    one, and when ``lens`` is ``None`` every hook site degrades to a
    single attribute-is-None check.
    """

    def __init__(self, spec: ScenarioSpec,
                 rng: Union[RngLike, np.random.SeedSequence] = None,
                 lens: Optional[NetLens] = None) -> None:
        self.spec = spec
        self.lens = lens
        root = _root_seed(rng)

        def link(pair: Tuple[str, str]) -> int:
            return _name_key(*pair)

        cos_rngs = _Streams(root, COS, link)
        sampling = _Streams(root, SAMPLING, int)
        self._interferer_rngs = _Streams(root, INTERFERER, _name_key)
        self.scheduler = EventScheduler()
        self.topology = spec.topology()
        # Frame fates: the measured-PHY PRR curves of the committed table.
        reception = ReceptionModel(
            capture_threshold_db=spec.radio.capture_threshold_db,
        )
        # A controller class may pin its feedback transport ("cos" /
        # "explicit"); None inherits the scenario's control mode.
        self.control_mode = (CONTROLLERS[spec.controller].transport
                             or spec.control)
        self.collector = _Collector([n.name for n in spec.nodes])
        self.medium = Medium(
            self.topology, self.scheduler, reception,
            _Streams(root, FATES, _name_key),
            on_outcome=self.collector.on_outcome,
            lens=lens,
            mode=spec.medium_mode,
            source_maps=(source_maps_for(spec)
                         if spec.medium_mode == "culled" else None),
        )

        def _plane(owner: int) -> ControlPlane:
            # Fresh controller per plane: per-BSS rate state mirrors the
            # per-BSS control planes (flows never span planes).
            return ControlPlane(
                mode=self.control_mode,
                cos_rngs=cos_rngs,
                collector=self.collector,
                controller=make_controller(spec.controller,
                                           rng=sampling[owner]),
                fixed_rate_mbps=spec.data_rate_mbps,
                max_embed_per_frame=spec.max_embed_per_frame,
                lens=lens,
                overhear=spec.cos_overhear,
            )

        self.bss_runtime: Optional[BssRuntime] = None
        if spec.bsses:
            self.bss_runtime = BssRuntime(
                spec.bsses,
                medium=self.medium,
                scheduler=self.scheduler,
                collector=self.collector,
                lens=lens,
                beacon_interval_us=spec.beacon_interval_us,
                horizon_us=spec.duration_us,
            )
            self.control_plane = ControlRouter(
                planes={b.ap: _plane(i) for i, b in enumerate(spec.bsses)},
                default=_plane(len(spec.bsses)),
                assoc_of=self.bss_runtime.ap_of,
            )
        else:
            self.control_plane = _plane(0)
        if lens is not None:
            lens.bind(
                [n.name for n in spec.nodes],
                bss_of=(self.bss_runtime.bss_map()
                        if self.bss_runtime is not None else None),
            )
        backoff_rngs = _Streams(root, BACKOFF, _name_key)
        self.macs: Dict[str, NodeMac] = {}
        for n in spec.nodes:
            self.macs[n.name] = NodeMac(
                name=n.name,
                medium=self.medium,
                scheduler=self.scheduler,
                backoff_rngs=backoff_rngs,
                control_plane=self.control_plane,
                collector=self.collector,
                lens=lens,
            )
        self.control_plane.bind(self.macs)
        for flow in spec.flows:
            self._schedule_flow(flow)
        for interferer in spec.interferers:
            self.scheduler.at(
                interferer.start_us, self._interferer_tick, interferer
            )
        if self.bss_runtime is not None:
            self.bss_runtime.start(self.macs)
        for i, t in enumerate(spec.traffic):
            arrivals = arrival_times(t, spec.duration_us,
                                     named_rng(root, ARRIVALS, owner=i))
            for arrival in arrivals:
                self.scheduler.at(arrival, self._traffic_arrive, t, arrival)
        # Pin mobile nodes back into the spatial index once their
        # waypoints are exhausted (both medium modes, so event counts
        # and streams stay comparable).
        for mob in spec.mobility:
            if not mob.waypoints:
                continue
            last_t = max(w[0] for w in mob.waypoints)
            if 0.0 < last_t < spec.duration_us:
                self.scheduler.at(last_t, self._pin_node, mob.node)

    # ------------------------------------------------------------------
    # Traffic and interference sources
    # ------------------------------------------------------------------

    def _schedule_flow(self, flow: FlowSpec) -> None:
        for i in range(flow.n_packets):
            arrival = flow.start_us + i * flow.interval_us
            if arrival > self.spec.duration_us:
                break
            self.scheduler.at(arrival, self._arrive, flow, arrival)

    def _arrive(self, flow: FlowSpec, arrival_us: float) -> None:
        self.collector.on_generated(flow.src)
        self.macs[flow.src].enqueue(NetFrame(
            kind="data", src=flow.src, dst=flow.dst,
            payload_octets=flow.payload_octets, created_us=arrival_us,
        ))

    def _traffic_arrive(self, t: TrafficSpec, arrival_us: float) -> None:
        dst = t.dst
        if dst == "@ap":
            dst = self.bss_runtime.ap_of(t.src)
            if dst is None or dst == t.src:
                return  # not (yet) associated: nothing to address
        self.collector.on_generated(t.src)
        self.macs[t.src].enqueue(NetFrame(
            kind="data", src=t.src, dst=dst,
            payload_octets=t.payload_octets, created_us=arrival_us,
        ))

    def _pin_node(self, name: str) -> None:
        self.topology.invalidate(name, self.scheduler.now_us)

    def _interferer_tick(self, spec: InterfererSpec) -> None:
        if float(self._interferer_rngs[spec.name].random()) < spec.probability:
            self.medium.begin(Transmission(
                src=spec.name, dst=None, kind="interference",
                rate_mbps=6, duration_us=spec.burst_us,
            ))
        next_us = self.scheduler.now_us + spec.period_us
        if next_us <= self.spec.duration_us:
            self.scheduler.at(next_us, self._interferer_tick, spec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> NetResult:
        with span("net.scenario", scenario=self.spec.name,
                  control=self.control_mode, nodes=len(self.spec.nodes)):
            end_us = self.scheduler.run(until_us=self.spec.duration_us)
        elapsed = self.collector.last_activity_us or end_us
        result = NetResult(
            scenario=self.spec.name,
            control=self.control_mode,
            duration_us=self.spec.duration_us,
            elapsed_us=elapsed,
            per_node=self.collector.nodes,
            airtime_us=dict(self.medium.airtime_us),
            n_events=self.scheduler.n_dispatched,
            n_roams=(self.bss_runtime.n_roams
                     if self.bss_runtime is not None else 0),
            associations=(dict(self.bss_runtime.assoc)
                          if self.bss_runtime is not None else None),
            controller=self.spec.controller,
        )
        lens = self.lens
        if lens is not None:
            lens.finalize(self.scheduler.now_us)
            result.ledger = lens.ledger_dict()
            result.events = lens.events
        return result


def _trace_events(result: NetResult, **stamp) -> None:
    """Write ``result``'s event records, plus ``stamp``, to the active trace."""
    tracer = current_tracer()
    if tracer is not None and result.events:
        for record in result.events:
            tracer.sink.emit({**record, **stamp})


def run_scenario(spec: ScenarioSpec, rng: RngLike = 0,
                 lens: Optional[NetLens] = None) -> NetResult:
    """Run one scenario once (deterministic in ``(spec, rng)``).

    A lensed run's event records also go to the active trace, if any.
    """
    result = NetSimulator(spec, rng=rng, lens=lens).run()
    _trace_events(result)
    return result


def _scenario_trial(trial: TrialSpec) -> NetResult:
    """Engine trial function: one independent realisation of the scenario."""
    lens = NetLens() if trial.get("lens") else None
    return NetSimulator(trial["scenario"], rng=trial.seed_seq,
                        lens=lens).run()


def run_scenario_sweep(
    spec: ScenarioSpec,
    n_trials: int = 1,
    seed: int = 0,
    workers: int = 0,
    lens: bool = False,
) -> List[NetResult]:
    """N independent trials through the deterministic trial engine.

    ``lens=True`` attaches a fresh :class:`~repro.net.lens.NetLens` to
    *every* trial; ledgers and events come back on each
    :class:`NetResult` (picklable, so this works across process pools).
    Each trial's event records
    then go to the active trace, if any, in trial order and stamped
    ``trial=i`` — here, in the calling process, so a serial and a pooled
    sweep write the same records.
    """
    params = [
        {"scenario": spec, "trial": i, "lens": lens} for i in range(n_trials)
    ]
    results = engine.run_sweep(
        params, _scenario_trial, seed=seed, workers=workers,
        label=f"net:{spec.name}",
    )
    for i, result in enumerate(results):
        _trace_events(result, trial=i)
    return results


def _combine_values(values: List) -> object:
    """Mean-over-trials combiner for one key of ``NetResult.to_dict``.

    ``None`` entries are dropped (``None`` when every trial is ``None``);
    dicts recurse over the union of keys, in order of first appearance
    (a key absent from one trial — a loss reason that never fired, an
    airtime kind never transmitted — counts as zero); identical values
    pass through unchanged (preserving strings, bools, and integer
    counts); differing numbers become the float mean; differing
    non-numerics (e.g. the final association map of a roaming scenario)
    pass through by first-trial value.

    The means are taken last, one ``mean(axis=1)`` over every differing
    leaf with the same number of values: that is bit-identical to one
    ``np.mean`` per leaf, as each row is reduced on its own.
    """
    root: Dict = {}
    rows: Dict[int, List[Tuple[Dict, object, List]]] = {}
    _combine_into(root, None, values, rows)
    for group in rows.values():
        means = np.array([row for _, _, row in group],
                         dtype=np.float64).mean(axis=1)
        for (out, key, _), mean in zip(group, means.tolist()):
            out[key] = mean
    return root[None]


_ABSENT = object()


def _combine_into(out: Dict, key: object, values: List,
                  rows: Dict[int, List[Tuple[Dict, object, List]]]) -> None:
    """Set ``out[key]`` to the combination of ``values``; a differing
    numeric leaf gets a placeholder (keeping key order) and joins
    ``rows`` under its length."""
    present = [v for v in values if v is not None]
    if not present:
        out[key] = None
        return
    first = present[0]
    if isinstance(first, dict):
        combined: Dict = {}
        for k in dict.fromkeys(k for v in present for k in v):
            column = [v.get(k, _ABSENT) for v in present]
            if _ABSENT in column:
                sample = next((c for c in column
                               if c is not None and c is not _ABSENT), None)
                missing = {} if isinstance(sample, dict) else 0
                column = [missing if c is _ABSENT else c for c in column]
            _combine_into(combined, k, column, rows)
        out[key] = combined
        return
    for v in present:
        if v != first:
            break
    else:
        out[key] = first
        return
    for v in present:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            out[key] = first
            return
    out[key] = None
    rows.setdefault(len(present), []).append((out, key, present))


def summarize_results(results: List[NetResult]) -> Dict:
    """Mean-over-trials summary (the ``repro net`` JSON export shape).

    Derived field-by-field from :meth:`NetResult.to_dict`, so every
    surface that exports a result — single-trial CLI JSON, multi-trial
    sweeps, the ledger extension — carries exactly the same keys and
    none can drift from the canonical shape.
    """
    if not results:
        raise ValueError("no results to summarize")
    dicts = [r.to_dict() for r in results]
    summary = _combine_values(dicts)
    summary["n_trials"] = len(results)
    return summary
