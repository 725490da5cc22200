"""Per-node 802.11 DCF state machine driven by scheduler events.

The contention-window rules are :class:`repro.mac.dcf.BackoffState`;
there is no global slot clock: each node runs its own machine against
*its own* view of the medium (carrier sense is positional, see
:mod:`repro.net.medium`):

    idle -> [DIFS + backoff countdown] -> TX -> await ACK -> idle
                   ^ freezes while the local medium is busy

Countdown bookkeeping is continuous-time: a countdown completion event
is scheduled ``DIFS + slots * SLOT`` ahead; if the local channel goes
busy first, the event is cancelled and the number of *whole* idle slots
elapsed is subtracted from the remaining backoff — the standard
freeze/resume semantics.  The node keeps no carrier state of its own: it
asks the medium for its verdict when it starts contending
(:meth:`~repro.net.medium.Medium.contend`), and the medium reports each
flip through :meth:`NodeMac.on_channel_state` until the node keys up.

A failed exchange (no ACK before the timeout) doubles the contention
window and retries the head frame, dropping it after ``MAX_RETRIES``;
success resets the window — all via ``BackoffState``.  ACKs are sent
SIFS after a successful data/control reception and pre-empt the node's
own countdown (which pauses and resumes afterwards).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.mac.dcf import (
    ACK_US,
    BASE_RATE_MBPS,
    BackoffState,
    DIFS_US,
    MAX_RETRIES,
    SIFS_US,
    SLOT_US,
    frame_airtime_us,
)
from repro.net.medium import Medium, Transmission
from repro.net.scheduler import Event, EventScheduler
from repro.phy.params import RATE_TABLE

__all__ = ["NetFrame", "NodeMac", "ACK_TIMEOUT_SLACK_US"]

#: Extra grace beyond SIFS + ACK before declaring the exchange failed.
ACK_TIMEOUT_SLACK_US = 3 * SLOT_US


@dataclass
class NetFrame:
    """A queued MAC frame in the multi-node simulator.

    ``dst`` is ``None`` for broadcast frames (beacons): they contend and
    transmit like any frame but are never ACKed or retried.
    """

    kind: str  # "data" | "control" | "ack" | "beacon"
    src: str
    dst: Optional[str]
    payload_octets: int
    created_us: float
    retries: int = 0
    msg: object = None  # ControlMessage for explicit control frames
    cos_msgs: Tuple = ()  # CoS messages riding this frame's silences
    rate_mbps: Optional[int] = None  # rate of the latest TX attempt

    @property
    def payload_bits(self) -> int:
        return self.payload_octets * 8 if self.kind == "data" else 0


class NodeMac:
    """One node's DCF engine: queue, backoff, TX/ACK exchange."""

    def __init__(
        self,
        name: str,
        medium: Medium,
        scheduler: EventScheduler,
        backoff_rngs: Mapping[str, np.random.Generator],
        control_plane,
        collector,
        max_retries: int = MAX_RETRIES,
        lens=None,
    ) -> None:
        self.name = name
        self.medium = medium
        self.scheduler = scheduler
        #: Backoff stream per MAC name; this MAC draws from its own.
        self.backoff_rngs = backoff_rngs
        self.control_plane = control_plane
        self.collector = collector
        self.max_retries = max_retries
        self.lens = lens  # optional repro.net.lens.NetLens (None = free)

        #: Association sink for received beacons (wired by the simulator
        #: when the scenario defines BSSes; ``None`` = ignore beacons).
        self.beacon_sink = None

        self.queue: List[NetFrame] = []
        self.backoff = BackoffState()
        self._countdown_event: Optional[Event] = None
        self._countdown_started_us = 0.0
        self._current_tx: Optional[Transmission] = None
        self._awaiting_ack_for: Optional[Transmission] = None
        self._ack_timeout_event: Optional[Event] = None

        medium.register(self)

    # ------------------------------------------------------------------
    # Queue / contention entry points
    # ------------------------------------------------------------------

    def enqueue(self, frame: NetFrame) -> None:
        self.queue.append(frame)
        self._maybe_contend()

    def idle(self) -> bool:
        """True when this MAC has nothing queued or in flight."""
        return (
            not self.queue
            and self._current_tx is None
            and self._awaiting_ack_for is None
        )

    def _maybe_contend(self) -> None:
        if not self.queue or self._current_tx is not None \
                or self._awaiting_ack_for is not None \
                or self._countdown_event is not None:
            return
        if self.backoff.slots is None:
            self.backoff.draw(self.backoff_rngs[self.name])
        if not self.medium.contend(self.name):
            self._start_countdown()

    # ------------------------------------------------------------------
    # Backoff countdown (freeze / resume)
    # ------------------------------------------------------------------

    def _start_countdown(self) -> None:
        self._countdown_started_us = self.scheduler.now_us
        self._countdown_event = self.scheduler.after(
            DIFS_US + self.backoff.slots * SLOT_US, self._countdown_done
        )
        if self.lens is not None:
            self.lens.on_backoff(self.name, True, self.scheduler.now_us)

    def _pause_countdown(self) -> None:
        if self._countdown_event is None:
            return
        self.scheduler.cancel(self._countdown_event)
        self._countdown_event = None
        if self.lens is not None:
            self.lens.on_backoff(self.name, False, self.scheduler.now_us)
        idle_us = self.scheduler.now_us - self._countdown_started_us - DIFS_US
        if idle_us > 0:
            consumed = int(math.floor(idle_us / SLOT_US + 1e-9))
            self.backoff.slots = max(0, self.backoff.slots - consumed)

    def on_channel_state(self, busy: bool) -> None:
        if busy:
            self._pause_countdown()
        else:
            self._maybe_contend()

    def _countdown_done(self) -> None:
        self._countdown_event = None
        if self.lens is not None:
            self.lens.on_backoff(self.name, False, self.scheduler.now_us)
        if self._current_tx is not None:
            # Our own ACK pre-empted the tail of the countdown; re-arm a
            # zero-slot countdown after the transmission completes.
            self.backoff.slots = 0
            return
        self.backoff.slots = None
        self._transmit_head()

    # ------------------------------------------------------------------
    # Transmission / exchange
    # ------------------------------------------------------------------

    def _transmit_head(self) -> None:
        frame = self.queue[0]
        if frame.kind == "data":
            rate = self.control_plane.rate_for(
                frame.src, frame.dst, retries=frame.retries,
                now=self.scheduler.now_us,
            )
            duration = frame_airtime_us(frame.payload_octets, RATE_TABLE[rate])
        else:  # control/beacon frame: base rate, like 802.11 management
            rate = BASE_RATE_MBPS
            duration = frame_airtime_us(frame.payload_octets, RATE_TABLE[rate])
        frame.rate_mbps = rate
        self.control_plane.attach(frame)
        tx = Transmission(
            src=self.name,
            dst=frame.dst,
            kind=frame.kind,
            rate_mbps=rate,
            duration_us=duration,
            payload_bits=frame.payload_bits,
            frame=frame,
        )
        self._current_tx = tx
        self.collector.on_attempt(self.name, frame.kind)
        self.medium.begin(tx)

    def on_tx_end(self, tx: Transmission) -> None:
        self._current_tx = None
        if tx.kind in ("data", "control"):
            self._awaiting_ack_for = tx
            self._ack_timeout_event = self.scheduler.after(
                SIFS_US + ACK_US + ACK_TIMEOUT_SLACK_US, self._ack_timeout
            )
        elif tx.kind == "beacon":
            # Broadcast: no ACK, no retry — the frame completes here.
            self.queue.pop(0)
            self.backoff.reset()
            self._maybe_contend()
        else:  # our ACK is out; resume whatever we were doing
            self._maybe_contend()

    def _ack_timeout(self) -> None:
        self._ack_timeout_event = None
        tx = self._awaiting_ack_for
        self._awaiting_ack_for = None
        frame = tx.frame
        # Frame fate to the rate controller *before* the retry counter
        # moves: ``frame.retries`` is the attempt this result belongs to.
        self.control_plane.on_tx_result(frame, False, self.scheduler.now_us)
        frame.retries += 1
        self.collector.on_failure(self.name, frame.kind)
        if frame.retries > self.max_retries:
            self.queue.pop(0)
            self.backoff.reset()
            self.collector.on_drop(self.name, frame, self.scheduler.now_us)
            if self.lens is not None:
                self.lens.on_drop(self.name, frame, self.scheduler.now_us)
        else:
            self.backoff.on_failure()
        self._maybe_contend()

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def on_beacon(self, ap: str, rssi_dbm: float, channel: int) -> None:
        """A beacon decoded at this node (deterministic energy gate)."""
        if self.beacon_sink is not None:
            self.beacon_sink.on_beacon(self.name, ap, rssi_dbm, channel,
                                       self.scheduler.now_us)

    def on_receive(self, tx: Transmission, ok: bool, sinr_db: float,
                   reason: str) -> None:
        now = self.scheduler.now_us
        if tx.kind in ("data", "control"):
            if not ok:
                # Tag-Spotting path: silence-level control may still be
                # recoverable below the data-decode threshold (no-op
                # unless the scenario enables overhearing).
                self.control_plane.on_frame_undecoded(tx, sinr_db, now)
                return
            self.control_plane.on_frame_received(tx, sinr_db, now)
            # ACK after SIFS; ends fire at priority -1 so the pending
            # carrier update lands before this.
            self.scheduler.after(SIFS_US, self._send_ack, tx)
            return
        if tx.kind == "ack":
            if ok:
                self.control_plane.on_frame_received(tx, sinr_db, now)
            pending = self._awaiting_ack_for
            if (
                ok
                and pending is not None
                and tx.src == pending.dst
                and tx.acks is pending.frame
            ):
                self._complete_exchange(pending, now)

    def _complete_exchange(self, data_tx: Transmission, now: float) -> None:
        if self._ack_timeout_event is not None:
            self.scheduler.cancel(self._ack_timeout_event)
            self._ack_timeout_event = None
        self._awaiting_ack_for = None
        frame = self.queue.pop(0)
        self.backoff.reset()
        self.collector.on_delivered(self.name, frame, now)
        if self.lens is not None:
            self.lens.on_deliver(self.name, frame, now)
        self.control_plane.on_tx_result(frame, True, now)
        self.control_plane.on_frame_acked(frame, now)
        self._maybe_contend()

    def _send_ack(self, data_tx: Transmission) -> None:
        if self._current_tx is not None:
            return  # half-duplex: we are mid-transmission, sender will retry
        self._pause_countdown()
        # The ACK is itself an OFDM frame, so CoS feedback may ride its
        # silence symbols — the carrier of last resort for unidirectional
        # flows (see docs/network.md).  ``acks`` links back to the data
        # frame so the original sender can match it to its pending head.
        ack_frame = NetFrame(
            kind="ack",
            src=self.name,
            dst=data_tx.src,
            payload_octets=14,
            created_us=self.scheduler.now_us,
        )
        self.control_plane.attach(ack_frame)
        tx = Transmission(
            src=self.name,
            dst=data_tx.src,
            kind="ack",
            rate_mbps=BASE_RATE_MBPS,
            duration_us=ACK_US,
            frame=ack_frame,
            acks=data_tx.frame,
        )
        self._current_tx = tx
        self.medium.begin(tx)
