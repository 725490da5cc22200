"""The CoS control plane: rate-adaptation feedback, free or paid-for.

Every successfully delivered **data** frame triggers one feedback
message at the receiver: the SINR it measured, owed back to the sender
so its :class:`repro.ratectl.RateController` (the SNR-threshold
staircase unless the scenario plugs in another) can track the link.
The two delivery mechanisms are the heart of the paper's comparison:

* ``explicit`` — the feedback becomes a real MAC frame (14 octets at the
  base rate, like an 802.11 management frame) that *contends for
  airtime*: DIFS, backoff, SIFS + ACK, retries — the full price.
* ``cos`` — the feedback rides in the silence intervals of the next
  frame the feedback owner transmits toward the consumer: **zero
  airtime**, but each embedded message only decodes with the
  probability the real ``cos.link`` closed loop measured at the
  carrier's SINR — P(message decoded | carrier decoded), replayed from
  the committed surrogate table (:meth:`repro.phy.surrogate.SurrogateTable
  .cos_delivery_prob`) — retrying on the next carrier.  Data frames
  are the natural carriers on bidirectional flows; for unidirectional
  flows the receiver's ACKs — OFDM frames too — carry the silences (a
  modelling extension documented in docs/network.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.net.medium import Transmission
from repro.phy.surrogate import load_default_table
from repro.ratectl import RateController

__all__ = [
    "ControlMessage",
    "ControlPlane",
    "ControlRouter",
    "CONTROL_OCTETS",
    "OVERHEAR_FLOOR_DB",
]

#: Body of an explicit feedback frame: 14 octets at the base rate, like
#: an 802.11 management frame.
CONTROL_OCTETS = 14

#: Minimum SINR at which silence-level energy detection still works when
#: the data payload does not decode (Tag-Spotting: control reaches beyond
#: the data-communication range).  Matches the bottom of the measured
#: CoS-delivery grid (:class:`repro.phy.surrogate.SurrogateSpec`).
OVERHEAR_FLOOR_DB = -2.0


@dataclass
class ControlMessage:
    """One rate-feedback message: measured SINR owed to the data sender."""

    msg_id: int
    src: str  # feedback owner = the data receiver
    dst: str  # feedback consumer = the data sender
    sinr_db: float
    created_us: float
    attempts: int = 0
    delivered_us: Optional[float] = None


class ControlPlane:
    """Feedback generation, transport (explicit vs CoS), and rate state."""

    def __init__(
        self,
        mode: str,
        cos_rngs: Mapping[Tuple[str, str], np.random.Generator],
        collector,
        controller: RateController,
        fixed_rate_mbps: Optional[int] = None,
        max_embed_per_frame: int = 4,
        lens=None,
        overhear: bool = False,
    ) -> None:
        if mode not in ("explicit", "cos"):
            raise ValueError(f"unknown control mode {mode!r}")
        self.mode = mode
        #: CoS-delivery stream per (src, dst) link, shared by every plane.
        self.cos_rngs = cos_rngs
        self.collector = collector
        self.fixed_rate_mbps = fixed_rate_mbps
        self.max_embed_per_frame = max_embed_per_frame
        self.lens = lens  # optional repro.net.lens.NetLens (None = free)
        self.controller = controller
        #: Tag-Spotting extension: attempt silence-level control decode /
        #: feedback on *failed* data receptions above OVERHEAR_FLOOR_DB.
        self.overhear = overhear

        self._macs: Dict[str, object] = {}
        self._pending: Dict[Tuple[str, str], List[ControlMessage]] = {}
        self._next_id = 0
        self._last_rate: Dict[Tuple[str, str], int] = {}

    def bind(self, macs: Dict[str, object]) -> None:
        """Late-bound MAC directory (the simulator wires both ways)."""
        self._macs = macs

    # ------------------------------------------------------------------
    # Rate state (what the feedback is *for*)
    # ------------------------------------------------------------------

    def rate_for(self, src: str, dst: str, retries: int = 0,
                 now: float = 0.0) -> int:
        """Current data rate of flow ``src -> dst`` (Mbps).

        Fixed-rate scenarios pin it; otherwise the controller decides
        per transmission attempt (``retries`` lets samplers walk their
        retry chains).  A changed decision is traced as a
        ``rate_selected`` lens event.
        """
        if self.fixed_rate_mbps is not None:
            return self.fixed_rate_mbps
        rate = int(self.controller.select_rate(src, dst, retries=retries))
        if self.lens is not None and self._last_rate.get((src, dst)) != rate:
            self._last_rate[(src, dst)] = rate
            self.lens.on_rate_selected(src, dst, rate,
                                       self.controller.name, now)
        return rate

    def on_tx_result(self, frame, ok: bool, now: float) -> None:
        """A data TX attempt completed (ACKed, or the ACK timed out).

        The frame-fate feed of the loss-driven controllers; no-op for
        non-data frames.
        """
        if frame.kind != "data" or frame.rate_mbps is None:
            return
        self.controller.on_tx_result(
            frame.src, frame.dst, frame.rate_mbps, ok,
            frame.retries, frame.payload_octets,
        )

    # ------------------------------------------------------------------
    # Feedback transport
    # ------------------------------------------------------------------

    def attach(self, frame) -> None:
        """Embed pending CoS messages in ``frame``'s silence intervals.

        Called by the MAC right before a frame goes on air.  No-op in
        explicit mode and for frames with no pending feedback toward
        their destination.  Messages stay in the pending queue until a
        successful decode — a lost carrier retries them automatically.
        """
        if self.mode != "cos" or frame.kind == "control":
            return
        pending = self._pending.get((frame.src, frame.dst))
        if pending:
            frame.cos_msgs = tuple(pending[: self.max_embed_per_frame])

    def on_frame_received(self, tx: Transmission, sinr_db: float,
                          now: float) -> None:
        """Handle a successfully decoded frame at its destination."""
        frame = tx.frame
        if frame is not None and frame.cos_msgs:
            self._decode_embedded(frame, sinr_db, now)
        if tx.kind == "data":
            self._generate_feedback(src=tx.dst, dst=tx.src,
                                    sinr_db=sinr_db, now=now)
        elif tx.kind == "control" and frame is not None and frame.msg is not None:
            self._deliver(frame.msg, now)

    def on_frame_undecoded(self, tx: Transmission, sinr_db: float,
                           now: float) -> None:
        """A data frame failed to decode at its destination.

        Nothing happens unless ``overhear`` is enabled (it is off by
        default).  With it on — the Tag-Spotting regime — the
        silence-level control channel outlives the data payload:
        embedded CoS messages still decode with the carrier-SINR
        accuracy, and the receiver still generates SINR
        feedback (energy measurement needs no payload).  This is what
        lets two cells beyond each other's data range keep exchanging
        control state over CoS while explicit control frames — data
        frames themselves — die with the payload.
        """
        if not self.overhear or tx.kind != "data":
            return
        if sinr_db < OVERHEAR_FLOOR_DB:
            return
        frame = tx.frame
        if self.mode == "cos" and frame is not None and frame.cos_msgs:
            self._decode_embedded(frame, sinr_db, now)
        self._generate_feedback(src=tx.dst, dst=tx.src,
                                sinr_db=sinr_db, now=now)

    def on_frame_acked(self, frame, now: float) -> None:
        """Sender-side completion hook (currently only for accounting)."""
        # Explicit control delivery is recorded at *reception*; the ACK
        # merely stops the sender's retries.  Nothing to do today, but
        # the hook keeps the MAC ignorant of control-plane policy.

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _generate_feedback(self, src: str, dst: str, sinr_db: float,
                           now: float) -> None:
        if not self.controller.uses_feedback:
            return  # loss-driven controller: no control traffic at all
        msg = ControlMessage(
            msg_id=self._next_id, src=src, dst=dst,
            sinr_db=float(sinr_db), created_us=now,
        )
        self._next_id += 1
        self.collector.on_control_generated(msg)
        if self.lens is not None:
            self.lens.on_control_generated(msg, self.mode, now)
        if self.mode == "explicit":
            from repro.net.mac import NetFrame  # circular at import time

            self._macs[src].enqueue(NetFrame(
                kind="control", src=src, dst=dst,
                payload_octets=CONTROL_OCTETS, created_us=now, msg=msg,
            ))
        else:
            self._pending.setdefault((src, dst), []).append(msg)

    def _decode_embedded(self, frame, carrier_sinr_db: float,
                         now: float) -> None:
        p = load_default_table().cos_delivery_prob(carrier_sinr_db)
        link = (frame.src, frame.dst)
        pending = self._pending.get(link, [])
        rng = self.cos_rngs[link]
        for msg in frame.cos_msgs:
            if msg.delivered_us is not None:
                continue
            msg.attempts += 1
            if float(rng.random()) < p:
                if msg in pending:
                    pending.remove(msg)
                self._deliver(msg, now)
        frame.cos_msgs = ()

    def _deliver(self, msg: ControlMessage, now: float) -> None:
        if msg.delivered_us is not None:
            return
        msg.delivered_us = now
        # The consumer keys its rate adaptation off the reported SINR —
        # the SiNE lesson: with a CSMA MAC and hidden nodes, SNR alone
        # would systematically overshoot.  ``(msg.dst, msg.src)`` is the
        # *data* flow the feedback is about (consumer -> owner).
        self.controller.on_feedback(msg.dst, msg.src, msg.sinr_db)
        self.collector.on_control_delivered(msg, now)
        if self.lens is not None:
            self.lens.on_control_delivered(msg, self.mode, now)

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())


class ControlRouter:
    """Per-BSS control-plane dispatch behind the :class:`ControlPlane` API.

    Multi-BSS scenarios get one independent ``ControlPlane`` per AP —
    each BSS adapts its rates and queues its feedback in isolation, so a
    congested cell cannot perturb another cell's control state.  The
    router resolves the owning plane per frame/message:

    * the frame's AP endpoint (src or dst is an AP) names the BSS;
    * otherwise the *current association* of the source station does —
      a station that roams carries its open feedback conversation to
      the new AP's plane;
    * unassociated traffic (none of the above) falls back to a shared
      default plane, which is also what single-BSS scenarios use
      directly, without a router.

    The interface is exactly the methods :class:`~repro.net.mac
    .NodeMac` and the simulator call on a plane, so the MAC stays
    ignorant of whether it talks to one plane or many.  Controllers are
    per plane — each BSS adapts with independent per-flow state.
    """

    def __init__(self, planes: Dict[str, ControlPlane],
                 default: ControlPlane, assoc_of) -> None:
        self.planes = dict(planes)  # AP name -> its BSS's plane
        self.default = default
        self.assoc_of = assoc_of  # station -> AP name (or None)

    def _plane_for(self, src: str, dst: Optional[str]) -> ControlPlane:
        plane = self.planes.get(src)
        if plane is not None:
            return plane
        if dst is not None:
            plane = self.planes.get(dst)
            if plane is not None:
                return plane
        ap = self.assoc_of(src)
        if ap is not None:
            plane = self.planes.get(ap)
            if plane is not None:
                return plane
        return self.default

    # -- the ControlPlane interface ------------------------------------

    def rate_for(self, src: str, dst: str, retries: int = 0,
                 now: float = 0.0) -> int:
        return self._plane_for(src, dst).rate_for(src, dst,
                                                  retries=retries, now=now)

    def attach(self, frame) -> None:
        self._plane_for(frame.src, frame.dst).attach(frame)

    def on_frame_received(self, tx: Transmission, sinr_db: float,
                          now: float) -> None:
        self._plane_for(tx.src, tx.dst).on_frame_received(tx, sinr_db, now)

    def on_frame_undecoded(self, tx: Transmission, sinr_db: float,
                           now: float) -> None:
        self._plane_for(tx.src, tx.dst).on_frame_undecoded(tx, sinr_db, now)

    def on_frame_acked(self, frame, now: float) -> None:
        self._plane_for(frame.src, frame.dst).on_frame_acked(frame, now)

    def on_tx_result(self, frame, ok: bool, now: float) -> None:
        self._plane_for(frame.src, frame.dst).on_tx_result(frame, ok, now)

    def bind(self, macs: Dict[str, object]) -> None:
        for plane in self.planes.values():
            plane.bind(macs)
        self.default.bind(macs)

    def pending_count(self) -> int:
        return (sum(p.pending_count() for p in self.planes.values())
                + self.default.pending_count())
