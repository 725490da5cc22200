"""BSS runtime: beacons, association, and strongest-AP roaming.

A :class:`~repro.net.scenario.BssSpec` declares the static shape of a
cell — the AP, its channel, the stations that start associated to it.
This module animates that shape at run time:

* **Beacons** — every AP enqueues a broadcast beacon frame each
  ``beacon_interval_us`` (APs are phase-staggered deterministically so
  co-located cells do not strobe in lockstep).  Beacons go through the
  normal DCF like any management frame; when one finishes, the medium
  fans it out to every listener that receives it at or above the
  carrier-sense threshold — a deterministic energy gate (see
  :meth:`repro.net.medium.Medium._deliver_beacon`).

* **Association** — stations named in a ``BssSpec`` start associated
  (and on their AP's channel); any other non-AP station joins the first
  AP it hears.  The association map drives ``"@ap"`` traffic targets
  and the per-BSS control-plane routing
  (:class:`~repro.net.control.ControlRouter`).

* **Roaming** — the station-side state machine.  Each decoded beacon
  updates the station's per-AP RSSI table; hearing a foreign AP more
  than :data:`ROAM_HYSTERESIS_DB` above the serving AP's level triggers a
  hand-off: the station switches to the new AP's channel (the medium
  re-evaluates its carrier state immediately) and its control
  conversation moves to the new AP's plane.  The serving AP's level is
  its last beacon RSSI, or the predicted co-channel power before the
  first one arrives, so a station that walks out of a cell roams even
  if it lost the old AP entirely.

Everything here is deterministic given the scheduler's event order.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.net.mac import NetFrame

__all__ = ["BEACON_OCTETS", "BssRuntime", "ROAM_HYSTERESIS_DB"]

#: 802.11-ish beacon body (timestamp + interval + caps + SSID + rates).
BEACON_OCTETS = 76

#: How far (dB) a foreign AP's beacon must beat the serving AP's level
#: before a station hands off: damps ping-pong at cell edges.
ROAM_HYSTERESIS_DB = 6.0


class BssRuntime:
    """Animate the BSS specs of one scenario run."""

    def __init__(
        self,
        bsses: Sequence,  # Sequence[BssSpec]
        medium,
        scheduler,
        collector,
        lens=None,
        beacon_interval_us: float = 102_400.0,
        beacon_octets: int = BEACON_OCTETS,
        horizon_us: float = float("inf"),
    ) -> None:
        self.bsses = tuple(bsses)
        self.medium = medium
        self.scheduler = scheduler
        self.collector = collector
        self.lens = lens
        self.beacon_interval_us = float(beacon_interval_us)
        self.beacon_octets = int(beacon_octets)
        self.horizon_us = float(horizon_us)

        self.ap_channel: Dict[str, int] = {
            b.ap: b.channel for b in self.bsses
        }
        #: station -> serving AP (spec members start associated).
        self.assoc: Dict[str, str] = {}
        #: station -> {ap -> last beacon RSSI dBm}.
        self.rssi: Dict[str, Dict[str, float]] = {}
        self.n_roams = 0
        self._macs: Dict[str, object] = {}

        for bss in self.bsses:
            for sta in bss.stations:
                self.assoc[sta] = bss.ap

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, macs: Dict[str, object]) -> None:
        """Wire the MACs, set initial channels, schedule beacon trains."""
        self._macs = macs
        for ap, ch in self.ap_channel.items():
            self.medium.set_channel(ap, ch)
        for sta, ap in self.assoc.items():
            self.medium.set_channel(sta, self.ap_channel[ap])
        for mac in macs.values():
            mac.beacon_sink = self
        n = max(len(self.bsses), 1)
        for i, bss in enumerate(self.bsses):
            # Deterministic phase stagger: cell i leads by i/n of a
            # beacon interval, so beacons never all contend at once.
            self.scheduler.at(
                i * self.beacon_interval_us / n, self._beacon_tick, bss
            )

    def _beacon_tick(self, bss) -> None:
        now = self.scheduler.now_us
        self._macs[bss.ap].enqueue(NetFrame(
            kind="beacon", src=bss.ap, dst=None,
            payload_octets=self.beacon_octets, created_us=now,
        ))
        next_us = now + self.beacon_interval_us
        if next_us <= self.horizon_us:
            self.scheduler.at(next_us, self._beacon_tick, bss)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def ap_of(self, station: str) -> Optional[str]:
        """Current serving AP of ``station`` (None when unassociated)."""
        return self.assoc.get(station)

    def bss_map(self) -> Dict[str, str]:
        """node -> BSS id (the AP's name), for APs and associated stations."""
        out = {ap: ap for ap in self.ap_channel}
        out.update(self.assoc)
        return out

    # ------------------------------------------------------------------
    # Station-side state machine
    # ------------------------------------------------------------------

    def on_beacon(self, station: str, ap: str, rssi_dbm: float,
                  channel: int, now: float) -> None:
        """A station decoded a beacon — update RSSI, maybe (re)associate."""
        if station in self.ap_channel:
            return  # APs hear each other's beacons; they never associate
        table = self.rssi.setdefault(station, {})
        table[ap] = rssi_dbm
        current = self.assoc.get(station)
        if current is None:
            self._associate(station, ap, rssi_dbm, now)
            return
        if ap == current:
            return
        serving = table.get(current)
        if serving is None:
            # No beacon from the serving AP yet: compare against its
            # predicted co-channel level at the station's position.
            serving = self.medium.topology.rx_power_dbm(current, station, now)
        if rssi_dbm > serving + ROAM_HYSTERESIS_DB:
            self._associate(station, ap, rssi_dbm, now)

    def _associate(self, station: str, ap: str, rssi_dbm: float,
                   now: float) -> None:
        prev = self.assoc.get(station)
        self.assoc[station] = ap
        self.medium.set_channel(station, self.ap_channel[ap])
        if prev is not None and prev != ap:
            self.n_roams += 1
            if self.collector is not None:
                self.collector.on_roam(station)
        if self.lens is not None:
            self.lens.on_assoc(station, ap, prev, rssi_dbm, now)
