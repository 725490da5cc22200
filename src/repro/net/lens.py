"""Net-lens: per-node airtime ledgers, event tracing, and a sim profiler.

The simulator's end-of-run aggregates (:class:`~repro.net.simulator
.NetResult`) say *what* happened; this module says *where the airtime
went*, *why each frame died*, and *how fast the simulator itself ran*.
One :class:`NetLens` instance observes one :class:`~repro.net.simulator
.NetSimulator` run through narrow hooks in the medium, the per-node MACs,
the control plane, and the event scheduler.  Every hook site is guarded
by a single ``if lens is not None`` check, so the disabled path (the
default, and the only path thousand-node scaling runs should ever take)
costs one attribute load + branch per site — gated under 3 % of the
run by ``lens_disabled_share`` in ``benchmarks/gates.py obs``.

Three instruments, independently switchable:

* **Airtime ledger** (``ledger=True``) — a per-node state machine over
  the mutually exclusive states ``tx`` / ``busy`` (carrier sensed, not
  transmitting: receiving, deferring, or frozen mid-backoff) /
  ``backoff`` (DIFS + countdown running on a locally idle channel) /
  ``idle``.  State occupancy telescopes over the run, so per node the
  four buckets sum *exactly* to the simulation duration — the
  conservation invariant ``tests/test_net_lens.py`` asserts to 1e-9.
  The ledger also splits transmit airtime by frame kind (data vs
  explicit control vs ACK) and tracks global channel-busy time (union
  of all transmissions), which is how the paper's "free control" claim
  becomes an observable: the CoS run's control airtime fraction must
  sit strictly below the explicit run's.

* **Event trace** (``trace=True``) — schema-versioned ``"net"`` records
  (``tx_start`` / ``tx_end`` / ``drop`` / ``deliver`` /
  ``control_generated`` / ``control_piggyback`` / ``control_delivered`` /
  ``rate_selected`` / ``assoc``)
  carrying simulation time (``t_us``) and, when ``wall_clock=True``,
  wall time (``wall_ts``).  Records are kept on :attr:`NetLens.events`
  (sim-deterministic: byte-identical across executors once sorted by
  ``t_us``/``seq``) and mirrored to the active :mod:`repro.obs.trace`
  sink when one is configured, so ``--trace-out`` files interleave net
  events with spans.  ``tx_end`` records carry the net-layer
  failure-cause taxonomy (:func:`repro.obs.flight.classify_net_failure`).

* **Throughput profiler** (``profile=True``) — hooks the scheduler's
  dispatch loop to time every callback, reporting events/sec, the
  sim-time-to-wall-time ratio, and per-event-type wall-time histograms.
  The ``net-scaling`` gates of ``benchmarks/gates.py`` read their
  events/sec from it (recorded in ``BENCH_gates.json``).

On :meth:`finalize` the lens folds its totals into the process metrics
registry (``repro_net_airtime_us_total``, ``repro_net_lens_events_total``,
``repro_net_event_seconds``, ``repro_net_events_per_sec``, …), which is
how ledger/throughput numbers survive process-pool sweeps: worker
registries merge back into the parent via the engine's existing
snapshot-delta mechanism.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.obs.flight import classify_net_failure
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry
from repro.obs.sink import SCHEMA_VERSION
from repro.obs.trace import current_tracer

__all__ = [
    "NET_EVENT_NAMES",
    "NODE_STATES",
    "EVENT_TIME_BUCKETS_S",
    "EventProfiler",
    "NetLens",
]

#: Every event name the trace may contain (golden-schema tests pin this).
NET_EVENT_NAMES = (
    "tx_start",
    "tx_end",
    "drop",
    "deliver",
    "control_generated",
    "control_piggyback",
    "control_delivered",
    "rate_selected",
    "assoc",
)

#: Mutually exclusive per-node airtime states (priority order).
NODE_STATES = ("tx", "busy", "backoff", "idle")

#: Wall-time buckets for per-event-type dispatch histograms: scheduler
#: callbacks run in the 100 ns – 1 ms range, far below the generic
#: LATENCY_BUCKETS_S resolution.
EVENT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7,
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 1e-2,
)


class _NodeLedger:
    """State-machine time accounting for one node (see module doc)."""

    __slots__ = ("state", "since_us", "acc_us", "tx_kind", "tx_kind_us",
                 "cs_busy", "backoff")

    def __init__(self) -> None:
        self.state = "idle"
        self.since_us = 0.0
        self.acc_us: Dict[str, float] = {s: 0.0 for s in NODE_STATES}
        self.tx_kind: Optional[str] = None
        self.tx_kind_us: Dict[str, float] = {}
        self.cs_busy = False
        self.backoff = False

    def _resolve(self) -> str:
        if self.tx_kind is not None:
            return "tx"
        if self.cs_busy:
            return "busy"
        if self.backoff:
            return "backoff"
        return "idle"

    def transition(self, now_us: float) -> None:
        """Close the current state's interval and enter the resolved one."""
        elapsed = now_us - self.since_us
        if elapsed > 0.0:
            self.acc_us[self.state] += elapsed
            if self.state == "tx" and self.tx_kind is not None:
                self.tx_kind_us[self.tx_kind] = (
                    self.tx_kind_us.get(self.tx_kind, 0.0) + elapsed
                )
        self.since_us = now_us
        self.state = self._resolve()


class EventProfiler:
    """Per-event-type wall-time accounting for the scheduler's dispatch loop.

    :meth:`record` is the per-dispatch hot call: one ``__qualname__``
    attribute read, one dict lookup, one histogram observe.  Installed on
    :attr:`EventScheduler.profiler <repro.net.scheduler.EventScheduler>`
    only while a profiling lens is attached; the scheduler's default loop
    pays a single ``is None`` check per event.
    """

    __slots__ = ("hists",)

    def __init__(self) -> None:
        self.hists: Dict[str, Histogram] = {}

    def record(self, fn, dt_s: float) -> None:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram(EVENT_TIME_BUCKETS_S)
        hist.observe(dt_s)

    def by_type(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.hists):
            h = self.hists[name]
            out[name] = {
                "count": h.count,
                "total_s": h.sum,
                "mean_us": (h.sum / h.count * 1e6) if h.count else 0.0,
                "p50_us": h.quantile(0.5) * 1e6,
                "p95_us": h.quantile(0.95) * 1e6,
            }
        return out


class NetLens:
    """One run's observability attachment (ledger + trace + profiler)."""

    def __init__(
        self,
        trace: bool = True,
        ledger: bool = True,
        profile: bool = True,
        wall_clock: bool = True,
        max_events: int = 200_000,
    ) -> None:
        self.trace = trace
        self.ledger = ledger
        self.profile = profile
        self.wall_clock = wall_clock
        self.max_events = max_events
        self.events: List[Dict] = []
        self.n_events_dropped = 0
        self.profiler = EventProfiler() if profile else None

        self._nodes: Dict[str, _NodeLedger] = {}
        self._bss_of: Dict[str, str] = {}
        self._seq = 0
        # Channel-busy union: count of in-flight transmissions.
        self._active = 0
        self._busy_since_us = 0.0
        self.channel_busy_us = 0.0
        #: Transmit airtime by frame kind (mirrors ``Medium.airtime_us``).
        self.airtime_by_kind_us: Dict[str, float] = {}

        self._wall_t0 = 0.0
        self._finalized: Optional[Dict] = None
        self.duration_us = 0.0
        self.n_sched_events = 0
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle (called by NetSimulator)
    # ------------------------------------------------------------------

    def bind(self, node_names, bss_of=None) -> None:
        """Register the MAC-bearing nodes the ledger accounts for.

        ``bss_of`` maps node name -> serving-AP name at scenario start
        (APs map to themselves).  When provided, trace ``tx_start``
        records are stamped with the transmitter's home BSS and
        :meth:`ledger_dict` adds a ``per_bss`` airtime rollup.  The map
        is the *initial* association — roams are visible as ``assoc``
        trace events, not as mid-run rebinning of the ledger.
        """
        self._nodes = {name: _NodeLedger() for name in node_names}
        self._bss_of = dict(bss_of) if bss_of else {}

    def on_run_start(self) -> None:
        self._wall_t0 = time.perf_counter()

    def finalize(self, end_us: float, n_sched_events: int,
                 registry: Optional[MetricsRegistry] = None) -> None:
        """Close every open interval at ``end_us`` and fold into metrics."""
        self.wall_s = time.perf_counter() - self._wall_t0
        self.duration_us = float(end_us)
        self.n_sched_events = int(n_sched_events)
        for node in self._nodes.values():
            node.transition(end_us)
        if self._active > 0:  # a transmission still on the air at the horizon
            self.channel_busy_us += end_us - self._busy_since_us
            self._busy_since_us = end_us
        self._fold_into_registry(registry if registry is not None
                                 else get_registry())
        self._finalized = None  # invalidate any cached dict

    # ------------------------------------------------------------------
    # Medium hooks
    # ------------------------------------------------------------------

    def on_tx_start(self, tx, now_us: float) -> None:
        if self._active == 0:
            self._busy_since_us = now_us
        self._active += 1
        self.airtime_by_kind_us[tx.kind] = (
            self.airtime_by_kind_us.get(tx.kind, 0.0) + tx.duration_us
        )
        node = self._nodes.get(tx.src)
        if node is not None:
            node.transition(now_us)  # close the pre-tx state's interval
            node.tx_kind = tx.kind
            node.transition(now_us)  # zero-length: re-resolve to "tx"
        if self.trace:
            record = {
                "event": "tx_start", "t_us": now_us, "src": tx.src,
                "dst": tx.dst, "kind": tx.kind, "rate_mbps": tx.rate_mbps,
                "duration_us": tx.duration_us,
            }
            if self._bss_of:
                record["bss"] = self._bss_of.get(tx.src)
            self._emit(record)
            frame = tx.frame
            if frame is not None and frame.cos_msgs:
                self._emit({
                    "event": "control_piggyback", "t_us": now_us,
                    "src": tx.src, "dst": tx.dst, "carrier_kind": tx.kind,
                    "n_msgs": len(frame.cos_msgs),
                })

    def on_tx_end(self, tx, now_us: float, ok: bool, sinr_db: float,
                  reason: str) -> None:
        self._active -= 1
        if self._active == 0:
            self.channel_busy_us += now_us - self._busy_since_us
        node = self._nodes.get(tx.src)
        if node is not None:
            node.transition(now_us)  # close the tx interval *with* its kind
            node.tx_kind = None
            node.transition(now_us)  # zero-length: leave the "tx" state
        if self.trace:
            record = {
                "event": "tx_end", "t_us": now_us, "src": tx.src,
                "dst": tx.dst, "kind": tx.kind, "start_us": tx.start_us,
                "duration_us": tx.duration_us,
            }
            if tx.dst is not None:
                record["ok"] = bool(ok)
                record["sinr_db"] = float(sinr_db)
                record["reason"] = reason
                record["cause"] = classify_net_failure(ok, reason)
            self._emit(record)

    def on_channel_state(self, name: str, busy: bool, now_us: float) -> None:
        node = self._nodes.get(name)
        if node is not None:
            node.cs_busy = busy
            node.transition(now_us)

    # ------------------------------------------------------------------
    # MAC hooks
    # ------------------------------------------------------------------

    def on_backoff(self, name: str, active: bool, now_us: float) -> None:
        node = self._nodes.get(name)
        if node is not None:
            node.backoff = active
            node.transition(now_us)

    def on_drop(self, name: str, frame, now_us: float) -> None:
        if self.trace:
            self._emit({
                "event": "drop", "t_us": now_us, "src": name,
                "dst": frame.dst, "kind": frame.kind,
                "retries": frame.retries, "cause": "retry_exhausted",
            })

    def on_deliver(self, name: str, frame, now_us: float) -> None:
        if self.trace:
            self._emit({
                "event": "deliver", "t_us": now_us, "src": name,
                "dst": frame.dst, "kind": frame.kind,
                "latency_us": now_us - frame.created_us,
            })

    # ------------------------------------------------------------------
    # BSS hooks
    # ------------------------------------------------------------------

    def on_assoc(self, station: str, ap: str, prev: Optional[str],
                 rssi_db: float, now_us: float) -> None:
        """A station (re-)associated: ``prev is None`` = initial join."""
        if self.trace:
            self._emit({
                "event": "assoc", "t_us": now_us, "src": station,
                "dst": ap, "prev": prev, "rssi_db": float(rssi_db),
                "roam": prev is not None,
            })

    # ------------------------------------------------------------------
    # Control-plane hooks
    # ------------------------------------------------------------------

    def on_control_generated(self, msg, transport: str, now_us: float) -> None:
        if self.trace:
            self._emit({
                "event": "control_generated", "t_us": now_us, "src": msg.src,
                "dst": msg.dst, "transport": transport,
                "sinr_db": float(msg.sinr_db),
            })

    def on_rate_selected(self, src: str, dst: str, rate_mbps: int,
                         controller: str, now_us: float) -> None:
        """A rate controller changed a flow's rate (emitted on change only)."""
        if self.trace:
            self._emit({
                "event": "rate_selected", "t_us": now_us, "src": src,
                "dst": dst, "rate_mbps": int(rate_mbps),
                "controller": controller,
            })

    def on_control_delivered(self, msg, transport: str, now_us: float) -> None:
        if self.trace:
            self._emit({
                "event": "control_delivered", "t_us": now_us, "src": msg.src,
                "dst": msg.dst, "transport": transport,
                "latency_us": now_us - msg.created_us,
                "attempts": msg.attempts,
            })

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, record: Dict) -> None:
        record["type"] = "net"
        record["schema"] = SCHEMA_VERSION
        record["seq"] = self._seq
        self._seq += 1
        if self.wall_clock:
            record["wall_ts"] = time.time()
        if len(self.events) < self.max_events:
            self.events.append(record)
        else:
            self.n_events_dropped += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit(record)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def ledger_dict(self) -> Dict:
        """The per-node airtime ledger (JSON-ready; call after finalize)."""
        total = self.duration_us or 1.0
        per_node = {}
        for name in sorted(self._nodes):
            node = self._nodes[name]
            kinds = node.tx_kind_us
            per_node[name] = {
                "tx_us": node.acc_us["tx"],
                "tx_data_us": kinds.get("data", 0.0),
                "tx_control_us": kinds.get("control", 0.0),
                "tx_ack_us": kinds.get("ack", 0.0),
                "tx_beacon_us": kinds.get("beacon", 0.0),
                "busy_us": node.acc_us["busy"],
                "backoff_us": node.acc_us["backoff"],
                "idle_us": node.acc_us["idle"],
                "fractions": {s: node.acc_us[s] / total for s in NODE_STATES},
            }
        contended = sum(v for k, v in self.airtime_by_kind_us.items()
                        if k != "interference")
        out = {
            "schema": SCHEMA_VERSION,
            "duration_us": self.duration_us,
            "channel_busy_us": self.channel_busy_us,
            "channel_busy_fraction": self.channel_busy_us / total,
            "airtime_us": dict(self.airtime_by_kind_us),
            "control_airtime_fraction": (
                self.airtime_by_kind_us.get("control", 0.0) / contended
                if contended else 0.0
            ),
            "per_node": per_node,
        }
        if self._bss_of:
            per_bss: Dict[str, Dict[str, float]] = {}
            keys = ("tx_us", "tx_data_us", "tx_control_us", "tx_ack_us",
                    "tx_beacon_us", "busy_us", "backoff_us", "idle_us")
            for name, row in per_node.items():
                bss = self._bss_of.get(name)
                if bss is None:
                    continue
                agg = per_bss.setdefault(
                    bss, {k: 0.0 for k in keys} | {"n_nodes": 0})
                agg["n_nodes"] += 1
                for k in keys:
                    agg[k] += row[k]
            out["per_bss"] = {b: per_bss[b] for b in sorted(per_bss)}
        return out

    def profile_dict(self) -> Dict:
        """Simulator-throughput report (call after finalize)."""
        wall = self.wall_s
        out = {
            "schema": SCHEMA_VERSION,
            "n_events": self.n_sched_events,
            "wall_s": wall,
            "events_per_sec": self.n_sched_events / wall if wall > 0 else 0.0,
            "sim_us": self.duration_us,
            "sim_wall_ratio": (self.duration_us / (wall * 1e6)
                               if wall > 0 else 0.0),
        }
        if self.profiler is not None:
            out["by_type"] = self.profiler.by_type()
        return out

    # ------------------------------------------------------------------
    # Metrics folding
    # ------------------------------------------------------------------

    def _fold_into_registry(self, registry: MetricsRegistry) -> None:
        if self.ledger:
            airtime = registry.counter(
                "repro_net_airtime_us_total",
                "per-node airtime by ledger state, microseconds",
            )
            for name, node in self._nodes.items():
                for state in NODE_STATES:
                    us = node.acc_us[state]
                    if us > 0.0:
                        airtime.labels(node=name, state=state).inc(us)
            registry.counter(
                "repro_net_channel_busy_us_total",
                "channel-busy time (union of transmissions), microseconds",
            ).inc(self.channel_busy_us)
        if self.trace and self.events:
            counts: Dict[str, int] = {}
            for ev in self.events:
                counts[ev["event"]] = counts.get(ev["event"], 0) + 1
            fam = registry.counter(
                "repro_net_lens_events_total", "net trace events by type"
            )
            for event_name, n in counts.items():
                fam.labels(event=event_name).inc(n)
        if self.profile and self.profiler is not None:
            fam = registry.histogram(
                "repro_net_event_seconds",
                "scheduler callback wall time by event type",
                buckets=EVENT_TIME_BUCKETS_S,
            )
            for name, hist in self.profiler.hists.items():
                child = fam.labels(event=name)
                child.sum += hist.sum
                child.count += hist.count
                for i, c in enumerate(hist.bucket_counts):
                    child.bucket_counts[i] += c
            registry.gauge(
                "repro_net_events_per_sec", "scheduler dispatch throughput"
            ).set(self.n_sched_events / self.wall_s if self.wall_s > 0 else 0.0)
            registry.gauge(
                "repro_net_sim_wall_ratio", "simulated time / wall time"
            ).set(self.duration_us / (self.wall_s * 1e6)
                  if self.wall_s > 0 else 0.0)
