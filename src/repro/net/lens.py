"""Net-lens: per-node airtime ledgers and the simulator's event records.

The simulator's end-of-run aggregates (:class:`~repro.net.simulator
.NetResult`) say *what* happened; this module says *where the airtime
went* and *why each frame died*.  One :class:`NetLens` instance observes
one :class:`~repro.net.simulator.NetSimulator` run through narrow hooks
in the medium, the per-node MACs, the BSS runtime and the control plane.
Every hook site is guarded by a single ``if lens is not None`` check, so
the disabled path (the default, and the only path thousand-node scaling
runs should ever take) costs one attribute load + branch per site —
gated under 3 % of the run by ``lens_disabled_share`` in
``benchmarks/gates.py obs``.  ``NetLens()`` takes no options: a lensed
run keeps both of the following.

* **Airtime ledger** — a per-node state machine over the mutually
  exclusive states ``tx`` / ``busy`` (carrier sensed, not transmitting:
  receiving, deferring, or frozen mid-backoff) / ``backoff`` (DIFS +
  countdown running on a locally idle channel) / ``idle``.  State
  occupancy telescopes over the run, so per node the four buckets sum
  *exactly* to the simulation duration — the conservation invariant
  ``tests/test_net_lens.py`` asserts to 1e-9.  The ledger also splits
  transmit airtime by frame kind (data vs explicit control vs ACK) and
  tracks global channel-busy time (union of all transmissions), which is
  how the paper's "free control" claim becomes an observable: the CoS
  run's control airtime fraction must sit strictly below the explicit
  run's.

* **Event records** — ordinary :mod:`repro.obs` point events
  (``{"type": "event", "name": "net.<event>", "schema": 2, ...}``, names
  in :data:`NET_EVENT_NAMES`) carrying simulation time (``t_us``) and an
  emission counter (``seq``), and no wall time, so a run's records are
  deterministic: serial and pooled sweeps give identical lists.  They
  are kept on :attr:`NetLens.events` (the first :data:`MAX_EVENTS`; the
  rest are counted in ``n_events_dropped``).  The lens never writes to
  a tracer: :func:`~repro.net.simulator.run_scenario` and
  :func:`~repro.net.simulator.run_scenario_sweep` emit a result's
  records into the caller's active trace.  ``tx_end`` records carry the
  net-layer failure-cause taxonomy (:func:`classify_net_failure`).

Where the simulator's wall time goes is not the lens's business: with a
tracer active, :meth:`repro.net.scheduler.EventScheduler.run` wraps each
dispatched callback in a ``net.<callback>`` span.

A lens is picklable and rides back on its trial's result, which is how
ledgers and records survive process-pool sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.sink import SCHEMA_VERSION

__all__ = [
    "LEDGER_SCHEMA",
    "MAX_EVENTS",
    "NET_EVENT_NAMES",
    "NET_FAILURE_CAUSES",
    "NODE_STATES",
    "NetLens",
    "classify_net_failure",
]

#: Every record name a lens may emit (golden-schema tests pin this).
NET_EVENT_NAMES = (
    "net.tx_start",
    "net.tx_end",
    "net.drop",
    "net.deliver",
    "net.control_generated",
    "net.control_piggyback",
    "net.control_delivered",
    "net.rate_selected",
    "net.assoc",
)

#: Why a *frame* lived or died in the multi-node simulator (the ``cause``
#: of ``net.tx_end`` / ``net.drop`` records).  ``collision`` is a
#: capture-gate loss (SINR below the capture threshold — a concurrent
#: transmission won), ``channel_error`` is a noise-floor loss (SINR
#: cleared capture but the rate-dependent error draw failed),
#: ``rx_busy`` is a half-duplex loss (the destination was itself
#: transmitting), and ``retry_exhausted`` is the MAC giving up after
#: MAX_RETRIES failed exchanges.
NET_FAILURE_CAUSES = ("ok", "collision", "channel_error", "rx_busy",
                      "retry_exhausted")


def classify_net_failure(ok: bool, reason: str) -> str:
    """Map a medium-level reception outcome onto :data:`NET_FAILURE_CAUSES`.

    ``reason`` is what :meth:`repro.net.sinr.ReceptionModel.decide` (or
    the medium's half-duplex gate) reported.  Unknown reasons collapse to
    ``channel_error`` rather than raising, so the trace stays writable
    when new loss modes are added below this layer.
    """
    if ok:
        return "ok"
    if reason in NET_FAILURE_CAUSES:
        return reason
    return "channel_error"


#: Mutually exclusive per-node airtime states (priority order).
NODE_STATES = ("tx", "busy", "backoff", "idle")

#: Event records kept per run; later ones only count in ``n_events_dropped``.
MAX_EVENTS = 200_000

#: Version of the :meth:`NetLens.ledger_dict` shape (independent of the
#: trace record schema: the ledger has not changed shape since it shipped).
LEDGER_SCHEMA = 1


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


class NetLens:
    """One run's airtime ledger and event records."""

    def __init__(self) -> None:
        self.events: List[Dict] = []
        self.n_events_dropped = 0

        self._nodes: Dict[str, _NodeLedger] = {}
        self._bss_of: Dict[str, str] = {}
        # Channel-busy union: count of in-flight transmissions.
        self._active = 0
        self._busy_since_us = 0.0
        self.channel_busy_us = 0.0
        #: Transmit airtime by frame kind (mirrors ``Medium.airtime_us``).
        self.airtime_by_kind_us: Dict[str, float] = {}
        self.duration_us = 0.0

    # ------------------------------------------------------------------
    # Lifecycle (called by NetSimulator)
    # ------------------------------------------------------------------

    def bind(self, node_names, bss_of=None) -> None:
        """Register the MAC-bearing nodes the ledger accounts for.

        ``bss_of`` maps node name -> serving-AP name at scenario start
        (APs map to themselves).  When provided, ``net.tx_start`` records
        are stamped with the transmitter's home BSS and
        :meth:`ledger_dict` adds a ``per_bss`` airtime rollup.  The map
        is the *initial* association — roams are visible as
        ``net.assoc`` records, not as mid-run rebinning of the ledger.
        """
        self._nodes = {name: _NodeLedger() for name in node_names}
        self._bss_of = dict(bss_of) if bss_of else {}

    def finalize(self, end_us: float) -> None:
        """Close every open interval at ``end_us``."""
        self.duration_us = float(end_us)
        for node in self._nodes.values():
            node.transition(end_us)
        if self._active > 0:  # a transmission still on the air at the horizon
            self.channel_busy_us += end_us - self._busy_since_us
            self._busy_since_us = end_us

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
        fields = {
            "t_us": now_us, "src": tx.src, "dst": tx.dst, "kind": tx.kind,
            "rate_mbps": tx.rate_mbps, "duration_us": tx.duration_us,
        }
        if self._bss_of:
            fields["bss"] = self._bss_of.get(tx.src)
        self._emit("net.tx_start", fields)
        frame = tx.frame
        if frame is not None and frame.cos_msgs:
            self._emit("net.control_piggyback", {
                "t_us": now_us, "src": tx.src, "dst": tx.dst,
                "carrier_kind": tx.kind, "n_msgs": len(frame.cos_msgs),
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
        fields = {
            "t_us": now_us, "src": tx.src, "dst": tx.dst, "kind": tx.kind,
            "start_us": tx.start_us, "duration_us": tx.duration_us,
        }
        if tx.dst is not None:
            fields["ok"] = bool(ok)
            fields["sinr_db"] = float(sinr_db)
            fields["reason"] = reason
            fields["cause"] = classify_net_failure(ok, reason)
        self._emit("net.tx_end", fields)

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
        self._emit("net.drop", {
            "t_us": now_us, "src": name, "dst": frame.dst, "kind": frame.kind,
            "retries": frame.retries, "cause": "retry_exhausted",
        })

    def on_deliver(self, name: str, frame, now_us: float) -> None:
        self._emit("net.deliver", {
            "t_us": now_us, "src": name, "dst": frame.dst, "kind": frame.kind,
            "latency_us": now_us - frame.created_us,
        })

    # ------------------------------------------------------------------
    # BSS hooks
    # ------------------------------------------------------------------

    def on_assoc(self, station: str, ap: str, prev: Optional[str],
                 rssi_db: float, now_us: float) -> None:
        """A station (re-)associated: ``prev is None`` = initial join."""
        self._emit("net.assoc", {
            "t_us": now_us, "src": station, "dst": ap, "prev": prev,
            "rssi_db": float(rssi_db), "roam": prev is not None,
        })

    # ------------------------------------------------------------------
    # Control-plane hooks
    # ------------------------------------------------------------------

    def on_control_generated(self, msg, transport: str, now_us: float) -> None:
        self._emit("net.control_generated", {
            "t_us": now_us, "src": msg.src, "dst": msg.dst,
            "transport": transport, "sinr_db": float(msg.sinr_db),
        })

    def on_rate_selected(self, src: str, dst: str, rate_mbps: int,
                         controller: str, now_us: float) -> None:
        """A rate controller changed a flow's rate (emitted on change only)."""
        self._emit("net.rate_selected", {
            "t_us": now_us, "src": src, "dst": dst,
            "rate_mbps": int(rate_mbps), "controller": controller,
        })

    def on_control_delivered(self, msg, transport: str, now_us: float) -> None:
        self._emit("net.control_delivered", {
            "t_us": now_us, "src": msg.src, "dst": msg.dst,
            "transport": transport, "latency_us": now_us - msg.created_us,
            "attempts": msg.attempts,
        })

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, name: str, fields: Dict) -> None:
        # ``seq`` is the emission index: records past the cap are only
        # counted, so a kept record's index is its place in ``events``.
        if len(self.events) < MAX_EVENTS:
            self.events.append({"type": "event", "name": name,
                                "schema": SCHEMA_VERSION, **fields,
                                "seq": len(self.events)})
        else:
            self.n_events_dropped += 1

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
            "schema": LEDGER_SCHEMA,
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
