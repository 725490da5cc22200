"""Source maps shared by the trials of one topology: warm ≡ cold.

In culled mode each static source's frozen contribution map is built on
its first transmission and kept in a
:class:`~repro.net.medium.SourceMaps` that every
:class:`~repro.net.NetSimulator` of the same topology in the process
shares (:func:`~repro.net.simulator.source_maps_for`).  These tests run
a spec on a cold memo and again on a warm one and require the same
canonical ``to_dict()`` (and, for lensed runs, the same ledger and event
records); they check that a warm trial builds only the maps of sources
new to it, that the key misses where a map would differ, that the memo
stays within its bounds, and that serial and pooled sweeps agree.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.net import (
    EventScheduler,
    NetLens,
    NetSimulator,
    RadioSpec,
    ReceptionModel,
    Topology,
    builtin_scenario,
    run_scenario_sweep,
    summarize_results,
)
from repro.net import simulator
from repro.net.medium import MAX_PLANS, Medium, SourceMaps, Transmission


@pytest.fixture(autouse=True)
def cold_memo():
    simulator.clear_source_maps()
    yield
    simulator.clear_source_maps()


def _run(spec, seed, lens=False):
    result = NetSimulator(spec, rng=seed,
                          lens=NetLens() if lens else None).run()
    return result.to_dict(), result.events


def _cold(spec, seed, lens=False):
    simulator.clear_source_maps()
    return _run(spec, seed, lens)


@pytest.fixture
def builds(monkeypatch):
    """The static sources each map build was for, in build order."""
    built = []
    contribution = Medium._contribution

    def counting(self, tx, now):
        maps = self._static_maps
        if maps is None:
            maps = self._plan_maps()
        if tx.src not in self._mobile and tx.src not in maps:
            built.append(tx.src)
        return contribution(self, tx, now)

    monkeypatch.setattr(Medium, "_contribution", counting)
    return built


GRID_256 = builtin_scenario("enterprise-grid", n_aps=16, stations_per_ap=15,
                            duration_us=40_000.0)


def test_enterprise_grid_warm_equals_cold():
    cold = {seed: _cold(GRID_256, seed) for seed in (0, 1)}
    # The memo now holds seed 1's maps: seed 0 reuses them and builds
    # the rest, then seed 1 runs on a fully warm memo.
    for seed in (0, 1):
        assert _run(GRID_256, seed) == cold[seed]


def test_a_warm_trial_builds_only_the_maps_of_new_sources(builds):
    NetSimulator(GRID_256, rng=0).run()
    first = list(builds)
    assert first and len(set(first)) == len(first)
    builds.clear()
    sim = NetSimulator(GRID_256, rng=1)
    sim.run()
    table = sim.medium._static_maps
    sent = set(table)  # one plan: every source that sent in either trial
    assert set(builds) == sent - set(first)
    assert len(set(builds)) == len(builds)
    builds.clear()
    NetSimulator(GRID_256, rng=1).run()
    assert builds == []


def test_campus_roaming_warm_equals_cold(monkeypatch):
    spec = builtin_scenario("campus-roaming")
    assert spec.duration_us == 400_000.0
    retunes_on_air = []
    set_channel = Medium.set_channel

    def recording(self, name, ch):
        if ch != self.channel.get(name, 0) and self._active:
            retunes_on_air.append(name)
        set_channel(self, name, ch)

    monkeypatch.setattr(Medium, "set_channel", recording)
    cold = _cold(spec, 0)
    assert cold[0]["n_roams"] > 0 and retunes_on_air
    assert _run(spec, 0) == cold
    assert _run(spec, 1) == _cold(spec, 1)


@pytest.mark.parametrize("name", ["cross-cell", "hidden-node"])
def test_small_scenarios_warm_equal_cold(name):
    spec = builtin_scenario(name)
    for seed in (0, 1):
        cold = _cold(spec, seed)
        _run(spec, seed + 7)
        assert _run(spec, seed) == cold


@pytest.mark.parametrize("name", ["cross-cell", "enterprise-grid"])
@pytest.mark.parametrize("lens_first", [False, True])
def test_lensed_and_plain_runs_share_a_topology(name, lens_first):
    spec = builtin_scenario(name)
    plain, lensed = _cold(spec, 3), _cold(spec, 3, lens=True)
    assert lensed[1] and "ledger" in lensed[0]
    assert {k: v for k, v in lensed[0].items() if k != "ledger"} == plain[0]
    simulator.clear_source_maps()
    order = [True, False] if lens_first else [False, True]
    for lens in order + order:
        assert _run(spec, 3, lens=lens) == (lensed if lens else plain)


def _table_of(spec):
    sim = NetSimulator(spec, rng=0)
    sim.run()
    return sim.medium._static_maps


def _variants():
    base = builtin_scenario("enterprise-grid", n_aps=4, stations_per_ap=15,
                            duration_us=20_000.0)
    nodes = list(base.nodes)
    moved = dataclasses.replace(nodes[5], x=nodes[5].x + 1.5)
    nodes[5] = moved
    bsses = list(base.bsses)
    bsses[1] = dataclasses.replace(bsses[1], channel=bsses[1].channel + 1)
    return base, {
        "interference_floor_dbm": dataclasses.replace(
            base, radio=dataclasses.replace(
                base.radio, interference_floor_dbm=-90.0)),
        "adjacent_rejection_db": dataclasses.replace(
            base, radio=dataclasses.replace(
                base.radio, adjacent_rejection_db=20.0)),
        "node_position": dataclasses.replace(base, nodes=tuple(nodes)),
        "bss_channel": dataclasses.replace(base, bsses=tuple(bsses)),
    }


@pytest.mark.parametrize("what", ["interference_floor_dbm",
                                  "adjacent_rejection_db", "node_position",
                                  "bss_channel"])
def test_a_spec_that_differs_in_what_a_map_depends_on_misses(what):
    base, variants = _variants()
    variant = variants[what]
    want = _cold(variant, 0)
    simulator.clear_source_maps()
    base_table = _table_of(base)
    table = _table_of(variant)
    assert table is not base_table
    for src, (contrib, _) in table.items():
        if src in base_table:
            assert contrib is not base_table[src][0]
    same_topology = what == "bss_channel"
    assert (simulator.source_maps_for(variant)
            is simulator.source_maps_for(base)) == same_topology
    assert _run(variant, 0) == want
    assert _run(base, 0) == _cold(base, 0)


def test_controller_traffic_seed_and_duration_share_the_maps():
    base, _ = _variants()
    others = [
        dataclasses.replace(base, controller="minstrel"),
        dataclasses.replace(base, control="explicit"),
        dataclasses.replace(base, duration_us=30_000.0),
        dataclasses.replace(base, traffic=base.traffic[:10]),
    ]
    table = _table_of(base)
    for spec in others:
        assert simulator.source_maps_for(spec) is \
            simulator.source_maps_for(base)
        assert _table_of(spec) is table


def test_the_memo_is_bounded_in_specs():
    base = builtin_scenario("hidden-node")
    memos = []
    for i in range(simulator.MAX_SPECS + 3):
        radio = dataclasses.replace(base.radio,
                                    interference_floor_dbm=-100.0 + i)
        spec = dataclasses.replace(base, radio=radio)
        NetSimulator(spec, rng=0).run()
        memos.append(simulator.source_maps_for(spec))
        assert len(simulator._SOURCE_MAPS) <= simulator.MAX_SPECS
    # The most recent ones are kept, the oldest were dropped.
    assert len(simulator._SOURCE_MAPS) == simulator.MAX_SPECS
    assert memos[-1] in simulator._SOURCE_MAPS.values()
    assert memos[0] not in simulator._SOURCE_MAPS.values()


class _Mac:
    def __init__(self, name: str) -> None:
        self.name = name

    def on_tx_end(self, tx) -> None:
        pass


def test_the_memo_is_bounded_in_plans_per_spec():
    positions = {f"n{i}": (10.0 * i, 0.0) for i in range(6)}
    maps = SourceMaps()
    medium = Medium(Topology(positions, radio=RadioSpec()), EventScheduler(),
                    ReceptionModel(), np.random.default_rng(0),
                    source_maps=maps)
    for name in positions:
        medium.register(_Mac(name))
    tables = []  # kept alive, so no two share an id
    for ch in range(MAX_PLANS + 4):
        medium.set_channel("n1", ch)
        medium.begin(Transmission(src="n0", dst=None, kind="data",
                                  rate_mbps=24, duration_us=10.0))
        medium.scheduler.run()
        tables.append(medium._static_maps)
        assert len(maps) <= MAX_PLANS
    assert len({id(t) for t in tables}) == MAX_PLANS + 4
    assert len(maps) == MAX_PLANS
    # A plan seen again reuses its table while it is kept.
    table = medium._static_maps
    medium.set_channel("n1", 0)
    medium.set_channel("n1", MAX_PLANS + 3)
    medium.begin(Transmission(src="n0", dst=None, kind="data",
                              rate_mbps=24, duration_us=10.0))
    assert medium._static_maps is table


def test_a_mobile_retune_keeps_the_plan(monkeypatch):
    spec = builtin_scenario("campus-roaming")
    plans = []
    plan_maps = Medium._plan_maps

    def recording(self):
        plans.append(self.scheduler.now_us)
        return plan_maps(self)

    monkeypatch.setattr(Medium, "_plan_maps", recording)
    result = NetSimulator(spec, rng=0).run()
    assert result.n_roams > 0  # every roamer is a walker
    assert len(plans) == 1


def test_serial_sweep_on_a_warm_memo_equals_cold_workers():
    spec = builtin_scenario("enterprise-grid", n_aps=4)
    # Cleared first, so each forked worker starts cold; the serial sweep
    # builds on trial 0 and reuses the maps on trials 1 to 3.
    pooled = run_scenario_sweep(spec, n_trials=4, seed=2, workers=2)
    serial = run_scenario_sweep(spec, n_trials=4, seed=2, workers=0)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]
    assert summarize_results(serial) == summarize_results(pooled)
