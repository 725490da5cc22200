"""The culled medium's indexes against an independent reference.

In culled mode :class:`~repro.net.medium.Medium` memoises each static
source's frozen contribution map and keeps, per static listener, the
list of active transmissions whose map holds it.  These tests drive a
``Medium`` directly through a seeded random sequence of ``begin``,
frame ends, ``set_channel`` retunes with frames on the air and a mobile
source, and after every step compare

* every active static-source transmission's map with one rebuilt here
  from the topology (channel rejection as at its start, updated for
  listeners that retuned since),
* ``sensed_power_mw`` at every listener with a walk over ``_active``
  that adds every term, zeros included — exact ``==``, not approximate,
* every active addressed transmission's ``interference_mw`` and
  ``rx_busy`` with an all-pairs reference accumulated at each ``begin``,
* the by-destination index with a scan of ``_active``, and
* each static listener's carrier state with the dBm verdict on that
  walk while no mobile source is on the air (a moving pair's power
  drifts between events, and carrier state is only re-evaluated at
  events).

Two edge tests pin the shortcuts that must not change a bit: the mW
guard band around the carrier-sense threshold, and the first map
build's distance prefilter at the edge of each channel step's radius.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.net import EventScheduler, RadioSpec, ReceptionModel, Topology, Waypoint
from repro.net.medium import Medium, Transmission
from repro.net.sinr import dbm_to_mw, mw_to_dbm

FLOOR_DBM = -95.0
RADIO = RadioSpec(path_loss_exponent=3.5, interference_floor_dbm=FLOOR_DBM)
MOBILE = "walker"


class _Mac:
    def __init__(self, name: str) -> None:
        self.name = name

    def on_channel_state(self, busy: bool) -> None:
        pass

    def on_tx_end(self, tx) -> None:
        pass

    def on_receive(self, tx, ok, sinr_db, reason) -> None:
        pass

    def on_beacon(self, ap, rssi_dbm, channel) -> None:
        pass


class _Reference:
    """The medium's expected state, rebuilt from the topology alone."""

    def __init__(self, medium: Medium) -> None:
        self.medium = medium
        self.topo = medium.topology
        self.static = [n for n in self.topo.names if not self.topo.is_mobile(n)]
        self.maps = {}  # static-source Transmission -> {listener: mW}
        self.interference = {}  # addressed Transmission -> mW
        self.rx_busy = {}  # addressed Transmission -> bool

    def _dbm(self, src: str, dst: str) -> float:
        p = self.topo.rx_power_dbm(src, dst, self.medium.scheduler.now_us)
        channel = self.medium.channel
        return p - abs(channel.get(src, 0) - channel.get(dst, 0)) * \
            RADIO.adjacent_rejection_db

    def _mw(self, src: str, dst: str) -> float:
        p = self._dbm(src, dst)
        return dbm_to_mw(p) if p >= FLOOR_DBM else 0.0

    def _pair_mw(self, tx: Transmission, listener: str) -> float:
        if MOBILE in (tx.src, listener):
            return self._mw(tx.src, listener)
        return self.maps[tx].get(listener, 0.0)

    def begin(self, tx: Transmission) -> None:
        """The expected state of ``tx`` and the active set, then begin."""
        if tx.src != MOBILE:
            self.maps[tx] = {}
            for name in self.static:
                if name != tx.src and self._dbm(tx.src, name) >= FLOOR_DBM:
                    self.maps[tx][name] = self._mw(tx.src, name)
        # The all-pairs cross-coupling, every term added.
        active = self.medium._active
        for other in active:
            if other.dst is not None:
                if tx.src == other.dst:
                    self.rx_busy[other] = True
                else:
                    self.interference[other] += self._pair_mw(tx, other.dst)
        if tx.dst is not None:
            self.interference[tx] = 0.0
            self.rx_busy[tx] = False
            for other in active:
                if other.src == tx.dst:
                    self.rx_busy[tx] = True
                else:
                    self.interference[tx] += self._pair_mw(other, tx.dst)
        self.medium.begin(tx)

    def retune(self, name: str, ch: int) -> None:
        """``medium.set_channel`` plus the maps it should touch."""
        changed = ch != self.medium.channel.get(name, 0)
        self.medium.set_channel(name, ch)
        if not changed or name == MOBILE:
            return
        for tx in self.medium._active:
            if tx.src in (name, MOBILE):
                continue
            self.maps[tx].pop(name, None)
            if self._dbm(tx.src, name) >= FLOOR_DBM:
                self.maps[tx][name] = self._mw(tx.src, name)

    def sensed_mw(self, listener: str) -> float:
        total = 0.0
        for tx in self.medium._active:
            if tx.src == listener:
                continue
            total += self._pair_mw(tx, listener)
        return total

    def check(self) -> None:
        medium = self.medium
        active = medium._active
        for tx in active:
            if tx.src != MOBILE:
                assert tx.contrib == self.maps[tx]
            if tx.dst is not None:
                assert tx.interference_mw == self.interference[tx], tx
                assert tx.rx_busy == self.rx_busy[tx], tx
        assert set(medium._by_dst) == {tx.dst for tx in active} - {None}
        mobile_on_air = any(tx.src == MOBILE for tx in active)
        for name in self.topo.names:
            assert medium._by_dst.get(name, []) == \
                [tx for tx in active if tx.dst == name]
            want = self.sensed_mw(name)
            got = medium.sensed_power_mw(name)
            assert np.float64(got) == np.float64(want), name
            if not mobile_on_air and name != MOBILE:
                assert medium._busy[name] == \
                    (mw_to_dbm(want) >= RADIO.cs_threshold_dbm), name


def _medium(n_static: int, rng: random.Random) -> Medium:
    positions = {f"n{i}": (rng.uniform(0, 220), rng.uniform(0, 220))
                 for i in range(n_static)}
    positions[MOBILE] = (0.0, 110.0)
    topo = Topology(positions, radio=RADIO, mobility={
        MOBILE: [Waypoint(0.0, 0.0, 110.0), Waypoint(50_000.0, 220.0, 110.0)],
    })
    medium = Medium(topo, EventScheduler(), ReceptionModel(),
                    np.random.default_rng(0))
    for name in positions:
        medium.register(_Mac(name))
    return medium


def _begin(ref: _Reference, src: str, dst, duration_us: float):
    tx = Transmission(src=src, dst=dst, kind="data", rate_mbps=24,
                      duration_us=duration_us)
    ref.begin(tx)
    return tx


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sensed_power_equals_active_walk_after_every_step(seed):
    rng = random.Random(seed)
    medium = _medium(14, rng)
    ref = _Reference(medium)
    names = list(medium.topology.names)
    indexed_steps = busy_retunes = mobile_steps = 0
    for _ in range(600):
        roll = rng.random()
        if roll < 0.45:
            src = rng.choice(names)
            dst = rng.choice([None] + [n for n in names if n != src])
            _begin(ref, src, dst, rng.uniform(50.0, 900.0))
        elif roll < 0.85:
            now = medium.scheduler.now_us
            medium.scheduler.run(until_us=now + rng.uniform(0.0, 400.0))
        else:
            name = rng.choice(names)
            busy_retunes += bool(medium._active)
            ref.retune(name, rng.randrange(3))
        ref.check()
        mobile_on_air = any(tx.src == MOBILE for tx in medium._active)
        mobile_steps += mobile_on_air
        indexed_steps += not mobile_on_air and len(medium._active) > 1
    # Both carrier-sense paths and mid-air retunes were exercised.
    assert indexed_steps > 100 and mobile_steps > 50 and busy_retunes > 30


def test_roam_copies_a_shared_map_and_freezes_the_roamers_own_frames():
    medium = _medium(14, random.Random(5))
    ref = _Reference(medium)
    topo = medium.topology
    src = "n0"
    listener = max((n for n in ref.static if n != src),
                   key=lambda n: topo.rx_power_dbm(src, n))
    first = _begin(ref, src, None, 500.0)
    second = _begin(ref, src, None, 500.0)
    shared = first.contrib
    assert second.contrib is shared  # one memoised map per static source
    before = dict(shared)
    assert listener in before

    ref.retune(listener, 1)  # roam with both frames on the air
    ref.check()
    assert shared == before  # edited on copies, not in place
    for tx in (first, second):
        assert tx.contrib is not shared
        assert tx.contrib.get(listener, 0.0) < before[listener]
        assert {k: v for k, v in tx.contrib.items() if k != listener} == \
            {k: v for k, v in before.items() if k != listener}

    # The source itself roaming leaves its in-flight maps frozen, and its
    # next frame gets a fresh map under the new channel plan.
    frozen = dict(first.contrib)
    ref.retune(src, 1)
    ref.check()
    assert first.contrib == frozen and second.contrib == frozen
    third = _begin(ref, src, None, 500.0)
    ref.check()
    assert third.contrib is not shared
    assert third.contrib[listener] == before[listener]  # co-channel again
    medium.scheduler.run()
    assert not medium._active
    for name in topo.names:
        assert medium.sensed_power_mw(name) == 0.0


def _pair_medium(positions, radio=RADIO) -> Medium:
    medium = Medium(Topology(positions, radio=radio), EventScheduler(),
                    ReceptionModel(), np.random.default_rng(0))
    for name in positions:
        medium.register(_Mac(name))
    return medium


def test_carrier_sense_verdict_inside_the_mw_guard_band():
    # Sweep the sensed power ulp by ulp across the threshold.  Near it,
    # ``p >= dbm_to_mw(cs)`` and ``mw_to_dbm(p) >= cs`` disagree on a
    # few values; the fan-out must always give the dBm verdict.
    cs = RADIO.cs_threshold_dbm
    threshold_mw = dbm_to_mw(cs)
    medium = _pair_medium({"a": (0.0, 0.0), "b": (10.0, 0.0)})
    tx = Transmission(src="a", dst=None, kind="data", rate_mbps=24,
                      duration_us=100.0)
    medium.begin(tx)
    sensed = threshold_mw
    for _ in range(40):
        sensed = math.nextafter(sensed, 0.0)
    verdicts, disagreements = set(), 0
    for _ in range(80):
        tx.contrib["b"] = sensed
        medium._update_carrier_states_for(["b"])
        assert medium.sensed_power_mw("b") == sensed
        want = mw_to_dbm(sensed) >= cs
        # "b" contends from the first draw on, so from the second the
        # verdict is the one the fan-out re-evaluated.
        assert medium.contend("b") == want, sensed
        verdicts.add(want)
        disagreements += (sensed >= threshold_mw) != want
        sensed = math.nextafter(sensed, math.inf)
    assert verdicts == {True, False} and disagreements > 0
    assert abs(sensed / threshold_mw - 1.0) < 1e-9  # all inside the band


def test_first_map_build_prefilter_keeps_every_pair_above_the_floor():
    # Listeners on channel steps 0, 1 and 2 from the source, each set
    # straddling that step's prefilter radius by 3 µm, plus a scatter.
    rejection = RADIO.adjacent_rejection_db
    topo = Topology({"src": (0.0, 0.0)}, radio=RADIO)
    positions = {"src": (0.0, 0.0)}
    channels = {}
    for dc in (0, 1, 2):
        r = topo.range_for_rx_dbm(FLOOR_DBM + dc * rejection)
        for tag, xy in (("in", (r - 3e-6, 0.0)), ("out", (0.0, r + 3e-6)),
                        ("near", (-0.5 * r, 0.0)), ("far", (0.0, -1.5 * r))):
            positions[f"l{dc}_{tag}"] = xy
            channels[f"l{dc}_{tag}"] = dc
    rng = random.Random(3)
    for i in range(40):
        positions[f"s{i}"] = (rng.uniform(-80, 80), rng.uniform(-80, 80))
        channels[f"s{i}"] = rng.randrange(3)
    medium = _pair_medium(positions)
    for name, ch in channels.items():
        medium.set_channel(name, ch)
    medium.begin(Transmission(src="src", dst=None, kind="data",
                              rate_mbps=24, duration_us=100.0))
    built = medium._static_maps["src"][0]

    want = {}
    for name in positions:
        p = medium._rx_dbm("src", name, 0.0)
        if name != "src" and p >= FLOOR_DBM:
            want[name] = dbm_to_mw(p)
    assert built == want
    assert list(built) == [n for n in medium.topology.neighbors_of(
        "src", medium.topology.relevance_range_m) if n in want]
    for dc in (0, 1, 2):
        assert f"l{dc}_in" in built and f"l{dc}_near" in built
        assert f"l{dc}_out" not in built and f"l{dc}_far" not in built
    assert set(medium._prefilter) == {0, 1, 2}
