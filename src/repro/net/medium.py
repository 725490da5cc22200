"""The shared wireless medium: who is on the air, who senses it, who decodes.

The medium tracks the set of in-flight transmissions.  From it fall out
the three physical facts the MAC layer consumes:

* **Carrier sense** — a node's sensed power is the linear sum of every
  other active source's received power at its position; the node is
  *locally busy* when that sum clears the carrier-sense threshold.
  Because the sum is position-dependent, two stations can each be busy
  to the AP yet idle to each other: the hidden-node pathology needs no
  special-casing.
* **Interference accounting** — every transmission accumulates, worst
  case over its whole airtime, the received power of every other source
  that overlapped it at its destination.  SINR at reception time is
  ``signal / (noise + accumulated interference)``.
* **Reception** — decided at frame end by the
  :class:`~repro.net.sinr.ReceptionModel` (capture gate + rate-dependent
  error draw).  A destination that itself transmitted during the frame
  loses it outright (half-duplex).

Interferer bursts are ordinary :class:`Transmission` records with
``dst=None`` — they deposit sensed power and interference but are never
received.  Beacons are ``dst=None`` too, but additionally fan out to
every listener that receives them above the carrier-sense threshold
(a deterministic energy-gate decode).

Two operating modes (``mode=``):

* ``"culled"`` (default) — a static source's received power at every
  *relevant* listener (grid-indexed neighbourhood, see
  :meth:`~repro.net.topology.Topology.neighbors_of`, with contributions
  below ``RadioSpec.interference_floor_dbm`` dropped) is computed the
  first time it transmits and memoised, together with its fan-out list
  in MAC-registration order; every later transmission from it shares
  that frozen contribution map.  The first build skips, before any
  path-loss call, each candidate farther than the distance at which its
  channel step's power reaches the floor (per-step radius, widened by a
  relative 1e-9 and memoised; infinite at a ``-inf`` floor), so the
  exact ``p >= floor`` test only runs on a disk, not the grid's box.
  That prefilter is one numpy expression over the grid's candidates
  (elementwise ``dx * dx + dy * dy`` rounds as Python's does); the
  survivors take the exact test through the scalar path-loss model, in
  grid-query order.  A map depends only on the topology, the channel
  plan of the static nodes, the MAC registration and whether the
  fan-out is eager, so the memo is a :class:`SourceMaps` table per such
  plan, and a medium given the :class:`SourceMaps` of an earlier one on
  the same topology (every trial of one scenario in a process, see
  :class:`~repro.net.simulator.NetSimulator`) reuses its maps: a source
  builds its map once per process and plan, not once per trial.
  ``set_channel`` on a static node switches to its new plan's table
  (and copies a map before editing it, so in-flight siblings and the
  shared table keep theirs).  Two indexes follow the active
  set: each static listener's *hearing list* (the active static-source
  transmissions whose map holds it) and, by destination, the active
  transmissions addressed to each node, both in ``_active`` order.
  Carrier sense sums the listener's hearing list instead of walking
  every transmission on the air; ``begin`` adds a static source's
  frozen powers to the receptions addressed to its map's listeners and
  takes a static destination's interference from its hearing list.
  Costs thus follow the local neighbourhood, not N.  The terms skipped
  are exact ``+0.0`` and every sum keeps its order, so results are
  bit-identical to the full walk, which is still taken whenever a
  mobile node is involved.  The carrier-state fan-out compares the
  hearing-list sum with the threshold in mW and only falls back to
  the dBm comparison within a relative 1e-9 of it, so the verdict is
  the same too.  With ``interference_floor_dbm = -inf`` the relevant
  set is every node and the frozen values equal the fresh ones for
  static topologies, making culled mode bit-for-bit identical to the
  dense path.  Static nodes are assumed not to move
  (``Topology.invalidate`` is only used to pin a finished walker).
* ``"dense-exact"`` — today's all-pairs semantics, recomputing every
  power from the topology at query time.  The equivalence oracle for
  tests.  Pairs touching a *mobile* node are excluded from the frozen
  maps and recomputed fresh at every query in culled mode too (mobiles
  are few and always in the culled visit set), so the two modes agree
  bit-for-bit even while nodes are moving.

**Carrier sense on demand.**  A MAC only acts on its verdict while it
*contends*: from the moment it has a frame to send and is free to count
down until it keys up.  So at a frame's start and end the medium
re-evaluates the verdict only of the contending MACs the frame reaches
(in registration order, as before), and a MAC that starts contending
asks for its verdict (:meth:`Medium.contend`).  The verdict it gets is
the one the eager fan-out would have left: a frame's end drops the
frame from the hearing lists only after the sender, receiver and
outcome callbacks, just before the fan-out.  Three cases keep every
listener's verdict current at each frame start and end, on the eager
path: an attached lens (its ledger records every flip), a topology
with a mobile node (its powers drift between events, so a verdict
taken later could differ), and ``"dense-exact"`` mode; so does a
degenerate carrier-sense threshold at or below an empty medium's
power.  The results are bit-identical either way.

Per-node channels: ``set_channel`` assigns a node to a channel index;
cross-channel power is attenuated ``adjacent_rejection_db`` per channel
step in both sensing and interference.  All nodes default to channel 0,
which keeps single-BSS scenarios exactly on the legacy numbers.
"""

from __future__ import annotations

import math
from collections import OrderedDict, defaultdict
from typing import (Callable, Dict, List, Mapping, Optional, Protocol, Tuple,
                    Union)

import numpy as np

from repro.net.scheduler import EventScheduler
from repro.net.sinr import ReceptionModel, dbm_to_mw, mw_to_dbm
from repro.net.topology import Topology

__all__ = ["Transmission", "Medium", "MEDIUM_MODES", "SourceMaps"]

MEDIUM_MODES = ("culled", "dense-exact")

#: Tables one :class:`SourceMaps` keeps, one per channel plan (with its
#: MAC registration and eager flag).
MAX_PLANS = 8


def lru_get(cache: OrderedDict, key, make: Callable, bound: int):
    """``cache[key]``, made by ``make()`` on a miss, marked most recent.

    Past ``bound`` entries the least recently used one is dropped.
    """
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > bound:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


class SourceMaps:
    """The culled medium's frozen static-source maps of one topology.

    One table per channel plan of the static nodes, MAC registration
    and eager flag, each ``{source -> (contribution map, ordered fan-out
    or None)}`` as :meth:`Medium._contribution` builds it.  A map depends
    on nothing else, so the media of every trial on one topology can
    share a :class:`SourceMaps`.  At most :data:`MAX_PLANS` tables are
    kept, the least recently used dropped first; the maps in them are
    never edited in place.
    """

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        self._tables: OrderedDict = OrderedDict()

    def table(self, key: Tuple) -> Dict[
            str, Tuple[Dict[str, float], Optional[List[str]]]]:
        """The table of plan ``key``, empty when new."""
        return lru_get(self._tables, key, dict, MAX_PLANS)

    def __len__(self) -> int:
        return len(self._tables)


class Transmission:
    """One frame (or interference burst) on the air."""

    __slots__ = (
        "src", "dst", "kind", "rate_mbps", "duration_us", "payload_bits",
        "frame", "acks", "start_us", "end_us", "signal_dbm",
        "interference_mw", "rx_busy", "contrib",
    )

    def __init__(
        self,
        src: str,
        dst: Optional[str],
        kind: str,
        rate_mbps: int,
        duration_us: float,
        payload_bits: int = 0,
        frame=None,
        acks=None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.rate_mbps = rate_mbps
        self.duration_us = float(duration_us)
        self.payload_bits = payload_bits
        self.frame = frame  # this transmission's own NetFrame (CoS carrier)
        self.acks = acks  # for ACKs: the data NetFrame being acknowledged
        self.start_us = 0.0
        self.end_us = 0.0
        self.signal_dbm = 0.0
        self.interference_mw = 0.0
        self.rx_busy = False
        #: Culled mode: {listener -> rx power mW}, frozen at TX start
        #: (static pairs only — mobile pairs are recomputed per query).
        self.contrib: Optional[Dict[str, float]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Transmission {self.kind} {self.src}->{self.dst} "
                f"[{self.start_us:.1f},{self.end_us:.1f}]us>")


class MacListener(Protocol):  # pragma: no cover - typing only
    name: str

    def on_channel_state(self, busy: bool) -> None: ...
    def on_tx_end(self, tx: Transmission) -> None: ...
    def on_receive(self, tx: Transmission, ok: bool, sinr_db: float,
                   reason: str) -> None: ...
    def on_beacon(self, ap: str, rssi_dbm: float, channel: int) -> None: ...


class Medium:
    """Active-transmission set + carrier-sense fan-out + SINR receptions."""

    def __init__(
        self,
        topology: Topology,
        scheduler: EventScheduler,
        reception: ReceptionModel,
        fates: Union[Mapping[str, np.random.Generator], np.random.Generator],
        on_outcome: Optional[Callable[[Transmission, bool, float, str], None]] = None,
        lens=None,
        mode: str = "culled",
        source_maps: Optional[SourceMaps] = None,
    ) -> None:
        if mode not in MEDIUM_MODES:
            raise ValueError(f"unknown medium mode {mode!r}")
        self.topology = topology
        self.scheduler = scheduler
        self.reception = reception
        #: Each receiver's frame-fate stream; a lone Generator (a medium
        #: driven on its own) serves every receiver.
        self.fates = (defaultdict(lambda: fates)
                      if isinstance(fates, np.random.Generator) else fates)
        self.on_outcome = on_outcome
        self.lens = lens  # optional repro.net.lens.NetLens (None = free)
        self.mode = mode
        self._culled = mode == "culled"
        self._floor_dbm = topology.radio.interference_floor_dbm
        #: Nodes that are (ever) mobile: their pairwise powers change
        #: over time, so they are never frozen into contribution maps.
        #: Snapshotted at init — a walker pinned mid-run by
        #: ``Topology.invalidate`` keeps its fresh-compute treatment for
        #: consistency across the whole run.
        self._mobile = frozenset(
            n for n in topology.names if topology.is_mobile(n)
        )
        #: The nodes whose channels a static source's map depends on.
        self._static_names = [
            n for n in topology.names if n not in self._mobile]
        self._macs: Dict[str, MacListener] = {}
        self._mac_order: Dict[str, int] = {}  # registration index
        #: Carrier verdict per MAC: every MAC's when :attr:`_eager`, else
        #: only the contending MACs' (see :meth:`contend`).
        self._busy: Dict[str, bool] = {}
        #: Keep every MAC's verdict current at each frame start and end,
        #: rather than only the contending MACs'.  A lens records every
        #: flip; a mobile node's powers drift between events, so a verdict
        #: taken on demand could differ from the one the last event left;
        #: the dense-exact oracle stays on the all-pairs path; and a
        #: threshold at or below the empty medium's power would make a
        #: never-evaluated MAC busy on demand yet idle eagerly.
        self._eager = (
            lens is not None or bool(self._mobile) or not self._culled
            or mw_to_dbm(0.0) >= topology.radio.cs_threshold_dbm
        )
        self._noise_mw = dbm_to_mw(topology.noise_dbm)
        #: Per-node channel index (absent = 0); see :meth:`set_channel`.
        self.channel: Dict[str, int] = {}
        self._tx_count: Dict[str, int] = {}  # node -> its in-flight count
        self._active: List[Transmission] = []
        #: Culled mode: static listener -> the active static-source
        #: transmissions whose frozen map holds it, in ``_active`` order.
        self._hearing: Dict[str, List[Transmission]] = {}
        #: Culled mode: the memo of frozen maps, shared with every
        #: medium given the same ``source_maps``.
        self._source_maps = (source_maps if source_maps is not None
                             else SourceMaps())
        #: Culled mode: its table for the current plan, static source ->
        #: (frozen map, ordered fan-out or None when not :attr:`_eager`),
        #: a map built on the source's first transmission under the
        #: plan; None until :meth:`_plan_maps` looks it up again after a
        #: :meth:`register` or a static node's :meth:`set_channel`.
        self._static_maps: Optional[Dict[
            str, Tuple[Dict[str, float], Optional[List[str]]]]] = None
        #: Culled mode: destination -> its active addressed
        #: transmissions, in ``_active`` order (empty lists dropped).
        self._by_dst: Dict[str, List[Transmission]] = {}
        #: Culled mode: channel step -> squared distance beyond which a
        #: static pair's power is surely below the floor (see
        #: :meth:`_prefilter_r2`).
        self._prefilter: Dict[int, float] = {}
        #: Culled mode, for the first map builds' prefilter (see
        #: :meth:`_contribution`): node -> row, the static x and y by
        #: row, and per source channel the squared radius by row.
        self._row: Optional[Dict[str, int]] = None
        self._xs = self._ys = np.empty(0)
        self._prefilter_rows: Dict[int, np.ndarray] = {}
        #: Culled mode: in-flight transmissions from mobile sources.
        self._mobile_on_air = 0
        #: Carrier-sense threshold in mW, widened by a relative 1e-9 each
        #: way: a sensed sum outside [idle, busy) decides the verdict
        #: without ``mw_to_dbm``; inside, the dBm comparison does.
        cs = topology.radio.cs_threshold_dbm
        if -300.0 <= cs <= 300.0:
            cs_mw = dbm_to_mw(cs)
            self._cs_idle_mw = cs_mw * (1.0 - 1e-9)
            self._cs_busy_mw = cs_mw * (1.0 + 1e-9)
        else:  # extreme thresholds: always take the dBm comparison
            self._cs_idle_mw, self._cs_busy_mw = 0.0, float("inf")
        #: Airtime by kind (data / control / ack / beacon / interference), µs.
        self.airtime_us: Dict[str, float] = {}

    def register(self, mac: MacListener) -> None:
        if mac.name in self._macs:
            raise ValueError(f"duplicate MAC for node {mac.name!r}")
        self._mac_order[mac.name] = len(self._macs)
        self._macs[mac.name] = mac
        if self._eager:
            self._busy[mac.name] = False
        self._hearing[mac.name] = []
        self._static_maps = None  # maps hold registered listeners only
        self._prefilter_rows.clear()

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------

    def set_channel(self, name: str, ch: int) -> None:
        """Assign ``name`` to channel ``ch`` (roaming / BSS setup).

        In culled mode a static node's retune moves the medium on to the
        new plan's table of source maps (a mobile node's does not: no map
        holds a mobile listener), every active transmission's frozen
        contribution at this listener is recomputed under the new channel
        rejection (on a copy: the map may be shared with the source's
        other transmissions and with other trials), the listener's
        hearing list is rebuilt, then its carrier state is re-evaluated —
        so a station that roams to a quieter channel goes locally idle
        immediately.
        """
        old = self.channel.get(name, 0)
        ch = int(ch)
        if ch == old:
            return
        self.channel[name] = ch
        if name not in self._mobile:  # no map holds a mobile's channel
            self._static_maps = None
        self._prefilter_rows.clear()
        if not self._active:
            return
        if self._culled:
            if name not in self._mobile:
                floor = self._floor_dbm
                for tx in self._active:
                    if tx.src == name or tx.src in self._mobile:
                        continue
                    p = self._rx_dbm(tx.src, name, self.scheduler.now_us)
                    contrib = tx.contrib = dict(tx.contrib)
                    contrib.pop(name, None)
                    if p >= floor:
                        contrib[name] = dbm_to_mw(p)
                self._hearing[name] = [
                    tx for tx in self._active if name in tx.contrib
                ]
            if name in self._macs:
                self._update_carrier_states_for((name,))
        else:
            self._update_carrier_states()

    def _rx_dbm(self, src: str, listener: str, t_us: float) -> float:
        """Channel-aware received power (adjacent-channel rejection)."""
        p = self.topology.rx_power_dbm(src, listener, t_us)
        channels = self.channel
        if channels:
            dc = abs(channels.get(src, 0) - channels.get(listener, 0))
            if dc:
                p -= dc * self.topology.radio.adjacent_rejection_db
        return p

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def _pair_mw(self, tx: Transmission, listener: str, now: float) -> float:
        """Culled-mode power of ``tx`` at ``listener`` (mW, floor-culled).

        Static pairs come from the frozen contribution map; any pair
        touching a mobile node is recomputed at ``now`` — identical to
        what the dense path would produce.
        """
        if tx.src in self._mobile or listener in self._mobile:
            p = self._rx_dbm(tx.src, listener, now)
            return dbm_to_mw(p) if p >= self._floor_dbm else 0.0
        return tx.contrib.get(listener, 0.0)

    def sensed_power_mw(self, listener: str) -> float:
        """Aggregate power from every *other* active source at ``listener``."""
        total = 0.0
        if self._culled:
            if not self._mobile_on_air and listener not in self._mobile:
                # Only the transmissions whose frozen map holds
                # ``listener``: the rest would add exact +0.0.
                for tx in self._hearing.get(listener, ()):
                    total += tx.contrib[listener]
                return total
            now = self.scheduler.now_us
            for tx in self._active:
                if tx.src == listener:
                    continue
                total += self._pair_mw(tx, listener, now)
        else:
            now = self.scheduler.now_us
            for tx in self._active:
                if tx.src == listener:
                    continue
                total += dbm_to_mw(self._rx_dbm(tx.src, listener, now))
        return total

    def locally_busy(self, listener: str) -> bool:
        """Carrier sense verdict at ``listener`` (excludes its own signal)."""
        return (
            mw_to_dbm(self.sensed_power_mw(listener))
            >= self.topology.radio.cs_threshold_dbm
        )

    def _verdict(self, name: str) -> bool:
        """:meth:`locally_busy` at MAC ``name``, decided in mW when it can be.

        A static listener with no mobile on the air sums its hearing list
        inline (:meth:`sensed_power_mw`'s indexed path) and decides in mW;
        only a sum within 1e-9 of the threshold takes the dBm comparison,
        so the verdict is the same.
        """
        if self._mobile_on_air or name in self._mobile:
            return self.locally_busy(name)
        total = 0.0
        for tx in self._hearing[name]:
            total += tx.contrib[name]
        if total >= self._cs_busy_mw:
            return True
        if total < self._cs_idle_mw:
            return False
        return mw_to_dbm(total) >= self.topology.radio.cs_threshold_dbm

    def contend(self, name: str) -> bool:
        """MAC ``name`` contends for the medium: its carrier verdict.

        From now until ``name`` keys up (its next :meth:`begin`), every
        frame start and end that reaches it re-evaluates its verdict and
        reports a flip through ``on_channel_state``.  The verdict is the
        one the last fan-out left, so a MAC that asks inside a frame end's
        callbacks still hears that frame.
        """
        busy = self._busy.get(name)
        if busy is None:
            busy = self._busy[name] = self._verdict(name)
        return busy

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------

    def _contribution(self, tx: Transmission, now: float) -> Dict[str, float]:
        """Frozen {listener -> mW} map of ``tx`` over its relevant set.

        Mobile endpoints are excluded (see :meth:`_pair_mw`): a mobile
        source freezes nothing, and mobile listeners are left out of a
        static source's map.  A static source's map is memoised with its
        ordered fan-out in the current plan's table, so its transmissions
        share one dict.
        """
        src = tx.src
        if src in self._mobile:
            return {}
        maps = self._static_maps
        if maps is None:
            maps = self._plan_maps()
        memo = maps.get(src)
        if memo is not None:
            return memo[0]
        topo = self.topology
        if self._row is None:
            self._row = {name: i for i, name in enumerate(topo.names)}
            xy = np.array([topo.position(name) for name in topo.names])
            self._xs, self._ys = xy[:, 0].copy(), xy[:, 1].copy()
        row = self._row
        names = topo.neighbors_of(src, topo.relevance_range_m, now)
        rows = np.fromiter(map(row.__getitem__, names), np.intp, len(names))
        # Skip, before any path-loss call, each candidate farther than its
        # channel step's radius: numpy's elementwise ``dx * dx + dy * dy``
        # rounds as Python's does, and a non-listener's radius is NaN.
        i = row[src]
        dx = self._xs[rows] - self._xs[i]
        dy = self._ys[rows] - self._ys[i]
        r2 = self._prefilter_by_row(self.channel.get(src, 0))
        near = dx * dx + dy * dy <= r2[rows]
        contrib: Dict[str, float] = {}
        floor = self._floor_dbm
        for k in np.flatnonzero(near).tolist():
            name = names[k]
            if name != src:
                p = self._rx_dbm(src, name, now)
                if p >= floor:
                    contrib[name] = dbm_to_mw(p)
        # Only the eager fan-out reads the ordered list.
        maps[src] = (
            contrib, self._ordered_listeners(contrib) if self._eager else None)
        return contrib

    def _plan_maps(self) -> Dict[
            str, Tuple[Dict[str, float], Optional[List[str]]]]:
        """Look up, and keep as :attr:`_static_maps`, the current plan's table.

        The plan is every static node's channel, the MACs in
        registration order and :attr:`_eager`: all a map depends on
        beyond the topology.
        """
        channel = self.channel
        plan = tuple([channel.get(n, 0) for n in self._static_names])
        self._static_maps = maps = self._source_maps.table(
            (plan, tuple(self._macs), self._eager))
        return maps

    def _prefilter_by_row(self, ch: int) -> np.ndarray:
        """:meth:`_prefilter_r2` of a channel-``ch`` source, by node row.

        NaN where the node is mobile or has no MAC, so that no distance
        passes.  Memoised per ``ch`` until the next :meth:`set_channel`
        or :meth:`register`.
        """
        r2 = self._prefilter_rows.get(ch)
        if r2 is None:
            channels, macs, mobile = self.channel, self._macs, self._mobile
            r2 = self._prefilter_rows[ch] = np.array([
                self._prefilter_r2(abs(channels.get(name, 0) - ch))
                if name in macs and name not in mobile else math.nan
                for name in self.topology.names
            ])
        return r2

    def _prefilter_r2(self, dc: int) -> float:
        """Squared prefilter radius of :meth:`_contribution` at step ``dc``.

        The distance at which a static pair ``dc`` channel steps apart
        falls to the floor, widened by a relative 1e-9 so that rounding
        in the path-loss model can never put a pruned pair at or above
        it; the exact ``p >= floor`` test still decides every survivor.
        Infinite at a ``-inf`` floor.  Memoised per ``dc``.
        """
        r2 = self._prefilter.get(dc)
        if r2 is None:
            rejection = self.topology.radio.adjacent_rejection_db
            r = self.topology.range_for_rx_dbm(
                self._floor_dbm + dc * rejection)
            r *= 1.0 + 1e-9
            r2 = self._prefilter[dc] = r * r
        return r2

    def begin(self, tx: Transmission) -> None:
        """Put ``tx`` on the air; its end (and reception) is scheduled here."""
        now = self.scheduler.now_us
        tx.start_us = now
        tx.end_us = now + tx.duration_us
        if not self._eager:
            self._busy.pop(tx.src, None)  # keying up ends its contention

        # Cross-couple with everything already on the air.
        culled = self._culled
        if culled:
            tx.contrib = self._contribution(tx, now)
            self._couple_culled(tx, now)
        else:
            for other in self._active:
                if other.dst is not None:
                    if tx.src == other.dst:
                        other.rx_busy = True  # other's receiver just keyed up
                    else:
                        other.interference_mw += dbm_to_mw(
                            self._rx_dbm(tx.src, other.dst, now)
                        )
            if tx.dst is not None:
                tx.signal_dbm = self._rx_dbm(tx.src, tx.dst, now)
                for other in self._active:
                    if other.src == tx.dst:
                        tx.rx_busy = True  # destination is mid-transmission
                    else:
                        tx.interference_mw += dbm_to_mw(
                            self._rx_dbm(other.src, tx.dst, now)
                        )

        self._active.append(tx)
        if culled:
            if tx.src in self._mobile:
                self._mobile_on_air += 1
            else:
                hearing = self._hearing
                for name in tx.contrib:
                    hearing[name].append(tx)
            if tx.dst is not None:
                self._by_dst.setdefault(tx.dst, []).append(tx)
        self._tx_count[tx.src] = self._tx_count.get(tx.src, 0) + 1
        self.airtime_us[tx.kind] = self.airtime_us.get(tx.kind, 0.0) + tx.duration_us
        if self.lens is not None:
            self.lens.on_tx_start(tx, now)
        # Ends fire before same-instant starts (priority -1) so a frame
        # beginning exactly as another ends is not counted as overlap.
        self.scheduler.at(tx.end_us, self._end, tx, priority=-1)
        if culled:
            self._update_carrier_states_for(self._carrier_listeners(tx))
        else:
            self._update_carrier_states()

    def _couple_culled(self, tx: Transmission, now: float) -> None:
        """Culled-mode cross-coupling of ``tx`` with the active set.

        The same adds as the all-pairs walk minus its exact ``+0.0``
        terms.  A static source adds its frozen power to each reception
        addressed to a listener in its map (each reception gets exactly
        one add, so visiting them by destination changes nothing), and
        a static destination's interference is its hearing-list sum, in
        ``_active`` order.  Pairs touching a mobile node go through
        :meth:`_pair_mw` as before.
        """
        src, dst = tx.src, tx.dst
        mobile = self._mobile
        by_dst = self._by_dst
        if src in mobile:
            for other in self._active:
                if other.dst is not None:
                    if src == other.dst:
                        other.rx_busy = True  # other's receiver just keyed up
                    else:
                        other.interference_mw += self._pair_mw(
                            tx, other.dst, now)
        else:
            for other in by_dst.get(src, ()):
                other.rx_busy = True  # other's receiver just keyed up
            contrib = tx.contrib
            for name in by_dst.keys() & contrib.keys():
                p = contrib[name]
                for other in by_dst[name]:
                    other.interference_mw += p
            for name in mobile:
                others = by_dst.get(name)
                if others:
                    p = self._pair_mw(tx, name, now)
                    for other in others:
                        other.interference_mw += p
        if dst is None:
            return
        tx.signal_dbm = self._rx_dbm(src, dst, now)
        hearing = self._hearing.get(dst)
        if hearing is not None and not self._mobile_on_air \
                and dst not in mobile:
            if self._tx_count.get(dst, 0):
                tx.rx_busy = True  # destination is mid-transmission
            for other in hearing:
                tx.interference_mw += other.contrib[dst]
            return
        for other in self._active:
            if other.src == dst:
                tx.rx_busy = True  # destination is mid-transmission
            else:
                tx.interference_mw += self._pair_mw(other, dst, now)

    def _end(self, tx: Transmission) -> None:
        self._active.remove(tx)
        if self._culled:
            if tx.src in self._mobile:
                self._mobile_on_air -= 1
            if tx.dst is not None:
                others = self._by_dst[tx.dst]
                if len(others) == 1:
                    del self._by_dst[tx.dst]
                else:
                    others.remove(tx)
        self._tx_count[tx.src] -= 1

        ok, sinr, reason = False, float("-inf"), "not_addressed"
        if tx.dst is not None:
            sinr = tx.signal_dbm - mw_to_dbm(self._noise_mw + tx.interference_mw)
            if tx.rx_busy:
                ok, reason = False, "rx_busy"
            else:
                ok, reason = self.reception.decide(sinr, tx.rate_mbps,
                                                   self.fates[tx.dst])

        if self.lens is not None:
            self.lens.on_tx_end(tx, self.scheduler.now_us, ok, sinr, reason)
        sender = self._macs.get(tx.src)
        if sender is not None:
            sender.on_tx_end(tx)
        if tx.dst is not None:
            if self.on_outcome is not None:
                self.on_outcome(tx, ok, sinr, reason)
            receiver = self._macs.get(tx.dst)
            if receiver is not None:
                receiver.on_receive(tx, ok, sinr, reason)
        elif tx.kind == "beacon":
            self._deliver_beacon(tx)
        if self._culled:
            # Only now do the hearing lists drop ``tx``: a MAC that starts
            # contending inside the callbacks above gets the verdict the
            # last fan-out left, as the fan-out below has not run yet.
            if tx.src not in self._mobile:
                hearing = self._hearing
                for name in tx.contrib:
                    try:
                        hearing[name].remove(tx)
                    except ValueError:  # set_channel rebuilt it without tx
                        pass
            self._update_carrier_states_for(self._carrier_listeners(tx))
        else:
            self._update_carrier_states()

    def _deliver_beacon(self, tx: Transmission) -> None:
        """Fan a finished beacon out to every listener that can decode it.

        Decoding is a deterministic energy gate — *raw co-channel* RSSI
        at or above the carrier-sense threshold and the listener not
        itself mid-transmission.  Raw power (no adjacent-channel
        rejection) models the station-side scan: a station parked on
        one channel still learns the beacon levels of neighbouring
        cells, which is what makes cross-channel roaming decidable.
        Both medium modes fan out over the same set: every MAC within
        the carrier-sense range.
        """
        topo = self.topology
        cs = topo.radio.cs_threshold_dbm
        ch = self.channel.get(tx.src, 0)
        tx_count = self._tx_count
        now = self.scheduler.now_us
        if self._culled:
            order = self._mac_order
            macs = self._macs
            names = [
                n for n in topo.neighbors_of(tx.src, topo.cs_range_m, now)
                if n in order and n != tx.src
            ]
            names.sort(key=order.__getitem__)
            seen = set()
            for name in names:
                if name in seen or tx_count.get(name, 0):
                    continue
                seen.add(name)
                rssi = topo.rx_power_dbm(tx.src, name, now)
                if rssi >= cs:
                    macs[name].on_beacon(tx.src, rssi, ch)
        else:
            for name, mac in self._macs.items():
                if name == tx.src or tx_count.get(name, 0):
                    continue
                rssi = topo.rx_power_dbm(tx.src, name, now)
                if rssi >= cs:
                    mac.on_beacon(tx.src, rssi, ch)

    # ------------------------------------------------------------------
    # Carrier-sense fan-out
    # ------------------------------------------------------------------

    def _ordered_listeners(self, contrib: Dict[str, float]) -> List[str]:
        """Contribution keys plus mobile MACs, in MAC-registration order.

        Mobile listeners are never in the frozen maps but their carrier
        state still depends on every transition, so they always join the
        fan-out.  Registration order matches the dense path's iteration
        exactly, so culled mode with an ``-inf`` floor replays the same
        carrier-flip sequence.
        """
        order = self._mac_order
        names = set(contrib)
        names.update(n for n in self._mobile if n in order)
        return sorted(names, key=order.__getitem__)

    def _fanout_listeners(self, tx: Transmission) -> List[str]:
        """Who to re-evaluate when ``tx`` keys up or ends (culled mode).

        A static source's set is its frozen contribution keys (plus the
        mobiles); a mobile source froze nothing, so its set is its
        *current* relevance neighbourhood — the same nodes the dense
        path would find affected.
        """
        if tx.src not in self._mobile:
            maps = self._static_maps
            memo = maps.get(tx.src) if maps is not None else None
            if memo is not None and memo[0] is tx.contrib:
                return memo[1]
            return self._ordered_listeners(tx.contrib)
        order = self._mac_order
        names = {
            n for n in self.topology.neighbors_of(
                tx.src, self.topology.relevance_range_m, self.scheduler.now_us
            )
            if n in order and n != tx.src
        }
        names.update(n for n in self._mobile if n in order and n != tx.src)
        return sorted(names, key=order.__getitem__)

    def _carrier_listeners(self, tx: Transmission):
        """The MACs whose verdict ``tx``'s start or end may flip.

        Its whole fan-out when :attr:`_eager`; else only the contending
        MACs in it (a static source's fan-out is its map's keys when no
        node is mobile), still in registration order.
        """
        if self._eager:
            return self._fanout_listeners(tx)
        names = self._busy.keys() & tx.contrib.keys()
        if len(names) > 1:
            return sorted(names, key=self._mac_order.__getitem__)
        return names

    def _update_carrier_states_for(self, names) -> None:
        """Re-evaluate carrier sense at ``names`` (culled mode).

        Only the MACs that hold a verdict: every MAC when :attr:`_eager`,
        else the contending ones (see :meth:`contend`).  A flip is
        reported to the lens and the MAC.
        """
        busy_map = self._busy
        for name in names:
            old = busy_map.get(name)
            if old is None:
                continue
            busy = self._verdict(name)
            if busy != old:
                busy_map[name] = busy
                if self.lens is not None:
                    self.lens.on_channel_state(name, busy, self.scheduler.now_us)
                self._macs[name].on_channel_state(busy)

    def _update_carrier_states(self) -> None:
        for name, mac in self._macs.items():
            busy = self.locally_busy(name)
            if busy != self._busy[name]:
                self._busy[name] = busy
                if self.lens is not None:
                    self.lens.on_channel_state(name, busy, self.scheduler.now_us)
                mac.on_channel_state(busy)
