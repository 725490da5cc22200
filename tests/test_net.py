"""Unit tests for the repro.net building blocks (scheduler, topology, SINR)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.net import (
    EventScheduler,
    FlowSpec,
    InterfererSpec,
    MobilitySpec,
    NodeSpec,
    RadioSpec,
    ReceptionModel,
    ScenarioSpec,
    Topology,
    TrafficSpec,
    Waypoint,
    sinr_db,
)
from repro.phy.surrogate import load_default_table


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.at(30.0, fired.append, "c")
        sched.at(10.0, fired.append, "a")
        sched.at(20.0, fired.append, "b")
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_same_instant_priority_then_fifo(self):
        sched = EventScheduler()
        fired = []
        sched.at(5.0, fired.append, "second")
        sched.at(5.0, fired.append, "third")
        sched.at(5.0, fired.append, "first", priority=-1)
        sched.run()
        assert fired == ["first", "second", "third"]

    def test_cancel_is_lazy_tombstone(self):
        sched = EventScheduler()
        fired = []
        keep = sched.at(1.0, fired.append, "keep")
        drop = sched.at(2.0, fired.append, "drop")
        sched.cancel(drop)
        assert len(sched) == 1
        sched.run()
        assert fired == ["keep"]
        sched.cancel(keep)  # cancelling a fired event is a no-op

    def test_run_horizon_is_resumable(self):
        sched = EventScheduler()
        fired = []
        sched.at(10.0, fired.append, "early")
        sched.at(100.0, fired.append, "late")
        assert sched.run(until_us=50.0) == 50.0
        assert fired == ["early"]
        sched.run()
        assert fired == ["early", "late"]

    def test_scheduling_in_the_past_raises(self):
        sched = EventScheduler()
        sched.at(10.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sched.after(-1.0, lambda: None)

    def test_nan_time_raises_and_names_it(self):
        sched = EventScheduler()
        with pytest.raises(ValueError, match="nan"):
            sched.at(math.nan, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            sched.after(math.nan, lambda: None)
        assert len(sched) == 0
        assert sched.run() == 0.0


class TestTopology:
    def test_path_loss_at_reference_distance(self):
        topo = Topology({"a": (0, 0)})
        assert topo.path_loss_db(1.0) == pytest.approx(46.7)
        # Below the reference distance the model clamps.
        assert topo.path_loss_db(0.01) == pytest.approx(46.7)

    def test_exponent_slope(self):
        topo = Topology({"a": (0, 0)})
        # n = 3 means 30 dB per decade of distance.
        assert topo.path_loss_db(10.0) - topo.path_loss_db(1.0) == pytest.approx(30.0)

    def test_carrier_sense_is_positional(self):
        radio = RadioSpec()
        topo = Topology(
            {"ap": (0, 0), "near": (12, 0), "far": (-48, 0)}, radio=radio
        )
        assert topo.senses("ap", "near")
        assert topo.senses("ap", "far")
        # The two stations are 60 m apart: below the CS threshold.
        assert not topo.senses("near", "far")
        assert topo.rx_power_dbm("far", "near") < radio.cs_threshold_dbm

    def test_mobility_interpolation(self):
        topo = Topology(
            {"m": (0, 0)},
            mobility={"m": [Waypoint(0.0, 0.0, 0.0), Waypoint(100.0, 10.0, 0.0)]},
        )
        assert topo.position("m", 50.0) == pytest.approx((5.0, 0.0))
        # Clamped outside the waypoint interval.
        assert topo.position("m", -5.0) == pytest.approx((0.0, 0.0))
        assert topo.position("m", 500.0) == pytest.approx((10.0, 0.0))

    def test_mobility_for_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Topology({"a": (0, 0)}, mobility={"ghost": [Waypoint(0, 0, 0)]})

    def test_noise_floor(self):
        # -174 + 10log10(20 MHz) + 7 dB NF ≈ -94 dBm.
        assert RadioSpec().noise_dbm == pytest.approx(-94.0, abs=0.1)


class TestSinr:
    def test_no_interference_reduces_to_snr(self):
        assert sinr_db(-60.0, [], -94.0) == pytest.approx(34.0)

    def test_equal_interferer_drives_sinr_to_zero(self):
        # Signal == interferer, noise negligible: SINR ~ 0 dB.
        assert sinr_db(-60.0, [-60.0], -200.0) == pytest.approx(0.0, abs=1e-6)

    def test_interference_accumulates_linearly(self):
        one = sinr_db(-60.0, [-70.0], -94.0)
        two = sinr_db(-60.0, [-70.0, -70.0], -94.0)
        assert two < one

    def test_error_model_unknown_rate(self):
        """Fates are drawn against the committed table, which has no
        curve for a rate 802.11a does not define."""
        model = ReceptionModel()
        assert model.table is load_default_table()
        with pytest.raises(KeyError, match="11 Mbps"):
            model.decide(10.0, 11, np.random.default_rng(0))

    def test_capture_gate(self):
        model = ReceptionModel(capture_threshold_db=4.0)
        rng = np.random.default_rng(0)
        ok, reason = model.decide(3.9, 6, rng)
        assert (ok, reason) == (False, "collision")
        ok, reason = model.decide(40.0, 6, rng)
        assert (ok, reason) == (True, "ok")

    def test_decide_consumes_one_draw_on_both_branches(self):
        # Determinism contract: the RNG stream must not depend on the
        # capture decision.
        model = ReceptionModel(capture_threshold_db=4.0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        model.decide(-10.0, 6, rng_a)   # below capture
        model.decide(40.0, 6, rng_b)    # above capture
        assert rng_a.random() == rng_b.random()


class TestScenarioSpec:
    def _spec(self, **overrides):
        kwargs = dict(
            name="t",
            nodes=(NodeSpec("a"), NodeSpec("b", 10.0, 0.0)),
            flows=(FlowSpec(src="a", dst="b", n_packets=3),),
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    def test_json_round_trip(self):
        spec = self._spec(control="explicit", data_rate_mbps=24)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        data = self._spec().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("error_model", "surrogate"),
        ("cos_fidelity", "table"),
        ("cos_delivery_prob", 0.97),
        ("control_octets", 14),
        ("roam_hysteresis_db", 6.0),
    ])
    def test_removed_model_fields_rejected(self, key, value):
        """Frame fates and CoS delivery have one measured model, and the
        feedback-frame size and roaming hysteresis are constants; a file
        still setting one fails instead of silently running without it."""
        data = self._spec().to_dict()
        data[key] = value
        with pytest.raises(ValueError,
                           match=rf"unknown scenario fields: \['{key}'\]"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_embed_per_frame_from_dict_must_be_positive(self, value):
        data = dict(self._spec().to_dict(), max_embed_per_frame=value)
        with pytest.raises(ValueError,
                           match=f"max_embed_per_frame must be at least 1, "
                                 f"got {value}"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["duration_us", "beacon_interval_us"])
    def test_durations_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            self._spec(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rate_pps", "burst_on_us", "burst_off_us"])
    def test_traffic_fields_must_be_finite_and_positive(self, field, value):
        traffic = (TrafficSpec(src="a", dst="b", model="onoff", **{field: value}),)
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            self._spec(traffic=traffic)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["interval_us", "start_us"])
    def test_flow_times_must_be_finite_and_non_negative(self, field, value):
        flows = (FlowSpec(src="a", dst="b", **{field: value}),)
        with pytest.raises(ValueError, match=f"flow {field} must be finite"):
            self._spec(flows=flows)

    @pytest.mark.parametrize("field,overrides", [
        ("node b x", dict(nodes=(NodeSpec("a"), NodeSpec("b", math.nan)))),
        ("node b y", dict(nodes=(NodeSpec("a"), NodeSpec("b", 1.0, math.inf)))),
        ("mobility b waypoint t_us",
         dict(mobility=(MobilitySpec("b", ((math.nan, 0.0, 0.0),)),))),
        ("mobility b waypoint x",
         dict(mobility=(MobilitySpec("b", ((0.0, math.nan, 0.0),)),))),
        ("mobility b waypoint y",
         dict(mobility=(MobilitySpec("b", ((0.0, 0.0, -math.inf),)),))),
        ("interferer i x", dict(interferers=(InterfererSpec("i", x=math.nan),))),
        ("interferer i y", dict(interferers=(InterfererSpec("i", y=math.nan),))),
        ("interferer i power_dbm",
         dict(interferers=(InterfererSpec("i", power_dbm=math.nan),))),
        ("interferer i burst_us",
         dict(interferers=(InterfererSpec("i", burst_us=math.nan),))),
        ("interferer i period_us",
         dict(interferers=(InterfererSpec("i", period_us=math.nan),))),
        ("interferer i probability",
         dict(interferers=(InterfererSpec("i", probability=math.nan),))),
        ("interferer i probability",
         dict(interferers=(InterfererSpec("i", probability=1.5),))),
        ("interferer i start_us",
         dict(interferers=(InterfererSpec("i", start_us=math.nan),))),
        ("traffic start_us",
         dict(traffic=(TrafficSpec(src="a", dst="b", start_us=math.nan),))),
        ("traffic stop_us",
         dict(traffic=(TrafficSpec(src="a", dst="b", stop_us=math.nan),))),
    ])
    def test_nan_and_infinite_fields_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            self._spec(**overrides)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RadioSpec)])
    def test_nan_radio_fields_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            self._spec(radio=RadioSpec(**{field: math.nan}))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_duration_in_json_rejected(self, literal):
        text = self._spec().to_json().replace(
            '"duration_us": 300000.0', f'"duration_us": {literal}')
        assert literal in text
        with pytest.raises(ValueError, match="duration_us"):
            ScenarioSpec.from_json(text)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown nodes"):
            self._spec(flows=(FlowSpec(src="a", dst="ghost"),))
        with pytest.raises(ValueError, match="self-loop"):
            self._spec(flows=(FlowSpec(src="a", dst="a"),))
        with pytest.raises(ValueError, match="unique"):
            self._spec(nodes=(NodeSpec("a"), NodeSpec("a", 1.0, 0.0)))
        with pytest.raises(ValueError, match="control mode"):
            self._spec(control="telepathy")
        with pytest.raises(ValueError, match="802.11a"):
            self._spec(data_rate_mbps=11)
        # A JSON ``"controller": null`` names the field and its default.
        data = self._spec().to_dict()
        data["controller"] = None
        with pytest.raises(ValueError,
                           match='"controller" .*default "snr-threshold"'):
            ScenarioSpec.from_dict(data)

    def test_with_control(self):
        spec = self._spec(control="cos")
        other = spec.with_control("explicit")
        assert other.control == "explicit"
        assert other.nodes == spec.nodes

    def test_save_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = self._spec()
        spec.save(str(path))
        assert ScenarioSpec.load(str(path)) == spec
