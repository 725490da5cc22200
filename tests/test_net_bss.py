"""Tests for the multi-BSS scale-out: grid culling, roaming, traffic.

The load-bearing guarantees:

* **Equivalence** — the grid-culled medium with the interference floor
  at ``-inf`` is *bit-for-bit* identical to the all-pairs
  ``dense-exact`` medium (same events, same RNG stream, same results),
  and at the default floor the goodput difference stays within 1 %.
* **Topology invariants** — the spatial index returns a superset of the
  true disk, the static path-loss cache never changes a value, and the
  coincident-node clamp keeps path loss finite.
* **Roaming** — walkers on the campus corridor hand off to the
  strongest AP (with hysteresis) and the hand-offs are counted.
* **Traffic** — the three arrival models honour rate, span, and
  determinism contracts.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from repro.net import (
    BssSpec,
    GridIndex,
    NetLens,
    RadioSpec,
    ScenarioSpec,
    TrafficSpec,
    builtin_scenario,
    run_scenario,
)
from repro.net import bss
from repro.net.scenario import NodeSpec
from repro.net.traffic import arrival_times, mean_rate_pps
from repro.net.topology import Topology, Waypoint

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------


class TestGridIndex:
    def test_query_disk_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = {f"n{i}": (float(x), float(y))
               for i, (x, y) in enumerate(rng.uniform(0, 200, size=(80, 2)))}
        grid = GridIndex(cell_m=30.0)
        for name, (x, y) in pts.items():
            grid.insert(name, x, y)
        for radius in (10.0, 45.0, 150.0):
            got = set(grid.query_disk(100.0, 100.0, radius))
            want = {n for n, (x, y) in pts.items()
                    if math.hypot(x - 100.0, y - 100.0) <= radius}
            # The grid returns a cell-aligned superset of the true disk.
            assert want <= got

    def test_infinite_radius_returns_everything(self):
        grid = GridIndex(cell_m=10.0)
        for i in range(5):
            grid.insert(f"n{i}", i * 100.0, -i * 50.0)
        assert set(grid.query_disk(0.0, 0.0, float("inf"))) == {
            f"n{i}" for i in range(5)
        }

    def test_move_and_remove(self):
        grid = GridIndex(cell_m=10.0)
        grid.insert("a", 0.0, 0.0)
        grid.move("a", 500.0, 500.0)
        assert "a" not in grid.query_disk(0.0, 0.0, 20.0)
        assert "a" in grid.query_disk(500.0, 500.0, 20.0)
        grid.remove("a")
        assert "a" not in grid
        assert len(grid) == 0


# ---------------------------------------------------------------------------
# Radio / topology invariants
# ---------------------------------------------------------------------------


class TestTopologyInvariants:
    def test_coincident_nodes_have_finite_path_loss(self):
        topo = Topology({"a": (5.0, 5.0), "b": (5.0, 5.0)})
        rx = topo.rx_power_dbm("a", "b")
        assert math.isfinite(rx)
        # Clamped at the reference distance: the free-space reference loss.
        assert rx == pytest.approx(
            topo.radio.tx_power_dbm - topo.radio.ref_loss_db)

    def test_min_distance_clamp_floors_close_pairs(self):
        radio = RadioSpec(min_distance_m=2.0)
        topo = Topology({"a": (0.0, 0.0), "b": (0.5, 0.0)}, radio=radio)
        assert topo.path_loss_db(0.5) == topo.path_loss_db(2.0)
        assert topo.path_loss_db(3.0) > topo.path_loss_db(2.0)

    @pytest.mark.parametrize("bad", [
        dict(min_distance_m=0.0),
        dict(min_distance_m=-1.0),
        dict(ref_distance_m=0.0),
        dict(adjacent_rejection_db=-1.0),
        dict(bandwidth_hz=0.0),
        dict(path_loss_exponent=0.0),
        dict(path_loss_exponent=-2.0),
        dict(tx_power_dbm=math.nan),
        dict(cs_threshold_dbm=math.nan),
        dict(adjacent_rejection_db=math.nan),
        dict(tx_power_dbm=math.inf),
        dict(cs_threshold_dbm=-math.inf),
        dict(noise_figure_db="7"),
        dict(interference_floor_dbm=math.nan),
        dict(interference_floor_dbm=math.inf),
    ])
    def test_radio_spec_validation(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            RadioSpec(**bad)

    def test_radio_spec_floor_may_be_minus_inf(self):
        radio = RadioSpec(interference_floor_dbm=-math.inf)
        assert Topology({"a": (0.0, 0.0)}, radio=radio).relevance_range_m \
            == math.inf

    def test_scenario_radio_block_is_validated(self):
        data = builtin_scenario("hidden-node").to_dict()
        data["radio"]["path_loss_exponent"] = 0
        with pytest.raises(ValueError, match="path_loss_exponent"):
            ScenarioSpec.from_dict(data)

    def test_static_pair_cache_is_exact(self):
        topo = Topology({f"n{i}": (i * 13.0, i * 7.0) for i in range(6)})
        names = list(topo.names)
        fresh = {}
        for a in names:
            for b in names:
                if a != b:
                    fresh[(a, b)] = topo.rx_power_dbm(a, b)
        # Second pass is served from the symmetric cache.
        for (a, b), val in fresh.items():
            assert topo.rx_power_dbm(a, b) == val

    def test_neighbors_of_is_superset_of_disk(self):
        rng = np.random.default_rng(3)
        positions = {f"n{i}": (float(x), float(y))
                     for i, (x, y) in enumerate(
                         rng.uniform(0, 300, size=(50, 2)))}
        topo = Topology(positions)
        radius = topo.cs_range_m
        for name in ("n0", "n17", "n42"):
            got = set(topo.neighbors_of(name, radius, 0.0))
            x, y = topo.position(name)
            want = {n for n in positions if n != name
                    and topo.distance_m(name, n) <= radius}
            assert want <= got

    def test_mobile_nodes_always_in_neighbors(self):
        topo = Topology(
            {"a": (0.0, 0.0), "walker": (10_000.0, 0.0)},
            mobility={"walker": [Waypoint(0.0, 10_000.0, 0.0),
                                 Waypoint(1e6, 0.0, 0.0)]},
        )
        assert topo.is_mobile("walker")
        # Far outside any grid radius, yet still visited by culling.
        assert "walker" in topo.neighbors_of("a", 50.0, 0.0)

    def test_invalidate_pins_node_and_keeps_powers_consistent(self):
        topo = Topology(
            {"a": (0.0, 0.0), "walker": (100.0, 0.0)},
            mobility={"walker": [Waypoint(0.0, 100.0, 0.0),
                                 Waypoint(1000.0, 20.0, 0.0)]},
        )
        before = topo.rx_power_dbm("walker", "a", 1000.0)
        topo.invalidate("walker", 1000.0)
        assert not topo.is_mobile("walker")
        assert topo.position("walker", 5000.0) == (20.0, 0.0)
        assert topo.rx_power_dbm("walker", "a", 5000.0) == before


# ---------------------------------------------------------------------------
# Culled vs dense-exact equivalence
# ---------------------------------------------------------------------------


def _with_floor(spec, floor_dbm):
    return dataclasses.replace(
        spec, radio=dataclasses.replace(spec.radio,
                                        interference_floor_dbm=floor_dbm))


class TestMediumEquivalence:
    @pytest.mark.parametrize("scenario", ["hidden-node", "contention"])
    def test_culled_at_inf_floor_is_bit_identical(self, scenario):
        spec = builtin_scenario(scenario, n_packets=40,
                                duration_us=60_000.0)
        spec = _with_floor(spec, float("-inf"))
        culled = run_scenario(spec.with_medium("culled"), rng=11)
        dense = run_scenario(spec.with_medium("dense-exact"), rng=11)
        assert json.dumps(culled.to_dict(), sort_keys=True) == \
            json.dumps(dense.to_dict(), sort_keys=True)

    def test_campus_roaming_bit_identical_with_mobility_and_beacons(self):
        spec = _with_floor(builtin_scenario("campus-roaming",
                                            duration_us=200_000.0),
                           float("-inf"))
        culled = run_scenario(spec.with_medium("culled"), rng=4)
        dense = run_scenario(spec.with_medium("dense-exact"), rng=4)
        assert culled.to_dict() == dense.to_dict()
        assert culled.associations == dense.associations

    def test_enterprise_grid_multichannel_bit_identical_at_inf_floor(self):
        # Four cells on three channels: adjacent-channel terms in every
        # map, and a per-channel-step prefilter radius that is infinite.
        spec = _with_floor(builtin_scenario("enterprise-grid", n_aps=4,
                                            duration_us=20_000.0),
                           float("-inf"))
        assert len({b.channel for b in spec.bsses}) > 1
        culled = run_scenario(spec.with_medium("culled"), rng=7)
        dense = run_scenario(spec.with_medium("dense-exact"), rng=7)
        assert culled.n_events > 100
        assert json.dumps(culled.to_dict(), sort_keys=True) == \
            json.dumps(dense.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("scenario", ["hidden-node", "contention"])
    def test_default_floor_goodput_within_one_percent(self, scenario):
        spec = builtin_scenario(scenario, n_packets=40,
                                duration_us=60_000.0)
        culled = run_scenario(spec.with_medium("culled"), rng=2)
        dense = run_scenario(spec.with_medium("dense-exact"), rng=2)
        assert culled.aggregate_goodput_mbps == pytest.approx(
            dense.aggregate_goodput_mbps, rel=0.01)

    def test_enterprise_grid_goodput_close_across_modes(self):
        spec = builtin_scenario("enterprise-grid", n_aps=4,
                                stations_per_ap=6, duration_us=50_000.0)
        culled = run_scenario(spec, rng=0)
        dense = run_scenario(spec.with_medium("dense-exact"), rng=0)
        assert culled.aggregate_goodput_mbps == pytest.approx(
            dense.aggregate_goodput_mbps, rel=0.1)
        # Event counts may drift slightly at a finite floor (sub-floor
        # power is dropped from carrier sense), but not structurally.
        assert abs(culled.n_events - dense.n_events) <= \
            0.01 * dense.n_events + 1


# ---------------------------------------------------------------------------
# Association and roaming
# ---------------------------------------------------------------------------


class TestRoaming:
    def test_walkers_hand_off_along_the_corridor(self):
        spec = builtin_scenario("campus-roaming")
        result = run_scenario(spec, rng=1)
        assert result.n_roams >= 2
        # Odd/even walkers traverse in opposite directions and end on
        # the far AP (hysteresis may leave them one cell short only if
        # the walk were truncated — it is not).
        assert result.associations["walker0"] == "ap2"
        assert result.associations["walker1"] == "ap0"
        assert result.per_node["walker0"].roams >= 1
        assert result.per_node["walker1"].roams >= 1
        # Static stations stay put.
        assert result.per_node["sta1_0"].roams == 0
        assert result.associations["sta1_0"] == "ap1"

    def test_roams_and_associations_in_result_dict(self):
        spec = builtin_scenario("campus-roaming", duration_us=200_000.0)
        result = run_scenario(spec, rng=1)
        d = result.to_dict()
        assert d["n_roams"] == result.n_roams
        assert d["associations"] == result.associations
        assert d["per_node"]["walker0"]["roams"] == \
            result.per_node["walker0"].roams

    def test_hysteresis_suppresses_pingpong(self, monkeypatch):
        # With an enormous hysteresis no one ever roams.
        monkeypatch.setattr(bss, "ROAM_HYSTERESIS_DB", 200.0)
        result = run_scenario(builtin_scenario("campus-roaming"), rng=1)
        assert result.n_roams == 0

    def test_static_grid_never_roams(self):
        spec = builtin_scenario("enterprise-grid", n_aps=4,
                                stations_per_ap=4, duration_us=60_000.0)
        result = run_scenario(spec, rng=0)
        assert result.n_roams == 0
        for a in range(4):
            assert result.associations[f"sta{a}_0"] == f"ap{a}"


# ---------------------------------------------------------------------------
# Traffic models
# ---------------------------------------------------------------------------


class TestTraffic:
    def test_cbr_is_deterministic_and_regular(self):
        spec = TrafficSpec(src="s", dst="d", model="cbr", rate_pps=1000.0)
        times = arrival_times(spec, 100_000.0, np.random.default_rng(0))
        assert len(times) == 101  # inclusive of t=0 and t=100ms
        gaps = np.diff(times)
        assert np.allclose(gaps, 1000.0)

    def test_poisson_rate_is_approximately_honoured(self):
        spec = TrafficSpec(src="s", dst="d", model="poisson", rate_pps=500.0)
        times = arrival_times(spec, 2_000_000.0, np.random.default_rng(1))
        assert len(times) == pytest.approx(1000, rel=0.15)
        assert all(0.0 <= t <= 2_000_000.0 for t in times)

    def test_onoff_respects_span_and_determinism(self):
        spec = TrafficSpec(src="s", dst="d", model="onoff", rate_pps=300.0,
                           start_us=10_000.0, stop_us=80_000.0)
        a = arrival_times(spec, 100_000.0, np.random.default_rng(7))
        b = arrival_times(spec, 100_000.0, np.random.default_rng(7))
        assert a == b
        assert all(10_000.0 <= t <= 80_000.0 for t in a)

    def test_mean_rate_pps(self):
        cbr = TrafficSpec(src="s", dst="d", model="cbr", rate_pps=80.0)
        assert mean_rate_pps(cbr) == 80.0
        onoff = TrafficSpec(src="s", dst="d", model="onoff", rate_pps=100.0,
                            burst_on_us=10_000.0, burst_off_us=30_000.0)
        assert mean_rate_pps(onoff) == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


class TestChannels:
    def test_adjacent_channel_rejection_scales_with_separation(self):
        spec = builtin_scenario("enterprise-grid", n_aps=2,
                                stations_per_ap=2, n_channels=2,
                                duration_us=30_000.0)
        assert {b.channel for b in spec.bsses} == {0, 1}
        result = run_scenario(spec, rng=0)
        assert result.aggregate_goodput_mbps > 0

    def test_single_channel_grid_contends_more(self):
        kw = dict(n_aps=4, stations_per_ap=5, duration_us=50_000.0,
                  rate_pps=200.0)
        reuse3 = run_scenario(
            builtin_scenario("enterprise-grid", n_channels=3, **kw), rng=0)
        reuse1 = run_scenario(
            builtin_scenario("enterprise-grid", n_channels=1, **kw), rng=0)
        # Frequency reuse must not hurt; with co-channel neighbours the
        # same offered load collides more / defers more.
        assert reuse3.aggregate_goodput_mbps >= reuse1.aggregate_goodput_mbps


# ---------------------------------------------------------------------------
# Spec round-trips and validation
# ---------------------------------------------------------------------------


class TestSpecSerialisation:
    @pytest.mark.parametrize("fname,builtin", [
        ("enterprise_grid.json", "enterprise-grid"),
        ("campus_roaming.json", "campus-roaming"),
    ])
    def test_shipped_scenarios_match_factories(self, fname, builtin):
        spec = ScenarioSpec.load(os.path.join(SCENARIO_DIR, fname))
        assert spec == builtin_scenario(builtin)

    def test_bss_traffic_json_roundtrip(self):
        spec = builtin_scenario("campus-roaming")
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.bsses[0] == BssSpec(
            ap=spec.bsses[0].ap, channel=spec.bsses[0].channel,
            stations=spec.bsses[0].stations)

    @pytest.mark.parametrize("mutate,match", [
        (lambda s: dataclasses.replace(s, bsses=s.bsses + (s.bsses[0],)),
         "unique"),
        (lambda s: dataclasses.replace(
            s, bsses=(BssSpec(ap="nope"),)), "not a node"),
        (lambda s: dataclasses.replace(
            s, bsses=(BssSpec(ap="ap0", stations=("ap1",)),
                      BssSpec(ap="ap1"))), "AP and station"),
        (lambda s: dataclasses.replace(
            s, traffic=(TrafficSpec(src="sta0_0", model="weird"),)),
         "traffic model"),
        (lambda s: dataclasses.replace(s, medium_mode="magic"), "medium_mode"),
        (lambda s: dataclasses.replace(s, beacon_interval_us=0.0), "beacon"),
    ])
    def test_spec_validation_rejects(self, mutate, match):
        spec = builtin_scenario("campus-roaming")
        with pytest.raises(ValueError, match=match):
            mutate(spec)

    def test_at_ap_traffic_requires_bsses(self):
        with pytest.raises(ValueError, match="@ap"):
            ScenarioSpec(
                name="x",
                nodes=(NodeSpec("a"), NodeSpec("b", 10.0)),
                flows=(),
                traffic=(TrafficSpec(src="a", dst="@ap"),),
            )

    def test_station_in_two_bsses_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            ScenarioSpec(
                name="x",
                nodes=(NodeSpec("ap0"), NodeSpec("ap1", 60.0),
                       NodeSpec("s", 30.0)),
                flows=(),
                bsses=(BssSpec(ap="ap0", stations=("s",)),
                       BssSpec(ap="ap1", stations=("s",))),
            )


# ---------------------------------------------------------------------------
# Lens integration: beacons, assoc events, per-BSS rollup
# ---------------------------------------------------------------------------


class TestBssObservability:
    def test_beacon_airtime_and_assoc_events(self):
        spec = builtin_scenario("campus-roaming", duration_us=200_000.0)
        result = run_scenario(spec, rng=1, lens=NetLens())
        ledger = result.ledger
        # APs spend airtime beaconing; it is accounted as its own kind.
        assert ledger["per_node"]["ap0"]["tx_beacon_us"] > 0
        assert ledger["airtime_us"].get("beacon", 0.0) > 0
        # The initial association map drives a per-BSS rollup.
        assert set(ledger["per_bss"]) == {"ap0", "ap1", "ap2"}
        total_nodes = sum(v["n_nodes"] for v in ledger["per_bss"].values())
        assert total_nodes == len(spec.nodes)
        # Roams show up as assoc trace events with prev set.
        roams = [ev for ev in result.events
                 if ev["name"] == "net.assoc" and ev["roam"]]
        assert len(roams) == result.n_roams
        for ev in roams:
            assert ev["prev"] is not None and ev["dst"] != ev["prev"]

    def test_timeline_groups_by_bss_and_paints_beacons(self):
        from repro.obs.timeline import render_timeline

        spec = builtin_scenario("campus-roaming", duration_us=120_000.0)
        result = run_scenario(spec, rng=0, lens=NetLens())
        art = render_timeline(result.events)
        assert "-- bss ap0 --" in art
        assert "B" in art  # beacon paint character


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCli:
    def test_net_list_shows_scale_columns(self, capsys):
        from repro.cli import main

        assert main(["net", "list"]) == 0
        out = capsys.readouterr().out
        assert "enterprise-grid" in out and "campus-roaming" in out
        assert "bsses" in out and "traffic" in out

    def test_net_run_medium_override(self, capsys):
        from repro.cli import main

        rc = main(["--quiet", "net", "run", "contention",
                   "--medium", "dense-exact", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["scenario"].startswith("contention")

    def test_net_run_shipped_scenario_file(self, capsys):
        from repro.cli import main

        path = os.path.join(SCENARIO_DIR, "campus_roaming.json")
        assert main(["--quiet", "net", "run", path]) == 0
        assert "campus-roaming" in capsys.readouterr().out
