"""Scenario-level regression tests: hidden node, capture, determinism."""

import pytest

from repro.net import (
    FlowSpec,
    InterfererSpec,
    MobilitySpec,
    NodeSpec,
    ScenarioSpec,
    builtin_scenario,
    run_scenario,
    run_scenario_sweep,
)


@pytest.fixture(scope="module")
def hidden_cos():
    return run_scenario(builtin_scenario("hidden-node", control="cos"), rng=1)


@pytest.fixture(scope="module")
def hidden_explicit():
    return run_scenario(builtin_scenario("hidden-node", control="explicit"), rng=1)


class TestHiddenNode:
    def test_stations_are_mutually_hidden(self):
        topo = builtin_scenario("hidden-node").topology()
        assert topo.senses("ap", "sta_near")
        assert topo.senses("ap", "sta_hidden")
        assert not topo.senses("sta_near", "sta_hidden")

    def test_hidden_station_sinr_goes_negative(self, hidden_cos):
        # During an overlap the near frame is ~18 dB hotter at the AP, so
        # the hidden frame's SINR dives below zero while the near frame
        # stays above the capture threshold.
        near = hidden_cos.per_node["sta_near"]
        hidden = hidden_cos.per_node["sta_hidden"]
        assert hidden.min_sinr_db < 0.0
        assert near.min_sinr_db > 4.0

    def test_hidden_station_delivery_collapses(self, hidden_cos):
        near = hidden_cos.per_node["sta_near"]
        hidden = hidden_cos.per_node["sta_hidden"]
        assert hidden.delivery_ratio < near.delivery_ratio - 0.15
        assert hidden.completion_ratio < near.completion_ratio / 2
        assert hidden.loss_reasons.get("collision", 0) > 0
        # Capture: the near station never loses a frame to a collision —
        # it rides over the hidden station's interference.
        assert near.loss_reasons.get("collision", 0) == 0

    def test_cos_raises_aggregate_and_near_station_goodput(
        self, hidden_cos, hidden_explicit
    ):
        assert (
            hidden_cos.aggregate_goodput_mbps
            > hidden_explicit.aggregate_goodput_mbps
        )
        assert (
            hidden_cos.goodput_mbps("sta_near")
            > hidden_explicit.goodput_mbps("sta_near")
        )

    @pytest.mark.parametrize("control", ["cos", "explicit"])
    def test_hidden_station_starves_under_both_transports(self, control):
        """Under measured-PHY fates the backlogged near station keeps the
        AP receiving; the hidden station's frames land on it (``rx_busy``)
        and almost none completes under either transport.  Judged over
        six seeds, not one: single-seed counts move with any change to
        the shared random stream."""
        spec = builtin_scenario("hidden-node", control=control)
        runs = [run_scenario(spec, rng=rng) for rng in range(6)]
        hidden = [r.per_node["sta_hidden"] for r in runs]
        near = [r.per_node["sta_near"] for r in runs]
        mean_hidden = sum(n.completion_ratio for n in hidden) / len(runs)
        mean_near = sum(n.completion_ratio for n in near) / len(runs)
        assert mean_hidden < 0.01
        assert mean_hidden < mean_near / 20
        # rx_busy, not the capture gate, is what starves it.
        lost = {reason: sum(n.loss_reasons.get(reason, 0) for n in hidden)
                for reason in ("rx_busy", "collision")}
        assert lost["rx_busy"] > lost["collision"]

    def test_explicit_pays_airtime_and_latency(self, hidden_cos, hidden_explicit):
        assert hidden_cos.control_airtime_fraction == 0.0
        assert hidden_explicit.control_airtime_fraction > 0.02
        lat_cos = hidden_cos.per_node["sta_near"].mean_control_latency_us
        lat_explicit = hidden_explicit.per_node["sta_near"].mean_control_latency_us
        assert lat_cos < lat_explicit


class TestCaptureThreshold:
    def _run(self, capture_db):
        import dataclasses

        spec = builtin_scenario("hidden-node", n_packets=200,
                                duration_us=100_000.0)
        spec = dataclasses.replace(
            spec, radio=dataclasses.replace(spec.radio,
                                            capture_threshold_db=capture_db)
        )
        return run_scenario(spec, rng=3)

    def test_raising_capture_threshold_kills_capture(self):
        # With the gate pushed above the near station's overlap SINR
        # (~18 dB), *both* frames of every overlap die instead of the
        # strong one surviving — the near station now loses frames to
        # collisions it previously captured through.
        normal = self._run(4.0)
        strict = self._run(25.0)
        near_normal = normal.per_node["sta_near"]
        near_strict = strict.per_node["sta_near"]
        assert near_normal.loss_reasons.get("collision", 0) == 0
        assert near_strict.loss_reasons.get("collision", 0) > 0
        assert near_strict.delivery_ratio < near_normal.delivery_ratio


class TestDeterminism:
    def test_serial_and_parallel_sweeps_are_identical(self):
        spec = builtin_scenario("hidden-node", n_packets=80,
                                duration_us=60_000.0)
        serial = run_scenario_sweep(spec, n_trials=3, seed=42, workers=0)
        parallel = run_scenario_sweep(spec, n_trials=3, seed=42, workers=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_same_seed_same_result(self):
        spec = builtin_scenario("hidden-node", n_packets=40,
                                duration_us=40_000.0)
        a = run_scenario(spec, rng=9)
        b = run_scenario(spec, rng=9)
        assert a.to_dict() == b.to_dict()


class TestSources:
    def test_interferer_collides_frames(self):
        # A loud co-channel burst source right next to the receiver:
        # bursts land as interference and kill frames mid-flight.
        spec = ScenarioSpec(
            name="interfered",
            nodes=(NodeSpec("tx", 0.0, 0.0), NodeSpec("rx", 15.0, 0.0)),
            flows=(FlowSpec(src="tx", dst="rx", n_packets=60),),
            interferers=(InterfererSpec(
                name="jammer", x=16.0, y=0.0, power_dbm=17.0,
                burst_us=400.0, period_us=800.0, probability=0.9,
            ),),
            duration_us=150_000.0,
        )
        result = run_scenario(spec, rng=5)
        stats = result.per_node["tx"]
        assert result.airtime_us.get("interference", 0.0) > 0.0
        assert stats.loss_reasons.get("collision", 0) > 0
        assert stats.delivery_ratio < 0.9

    def test_mobility_degrades_link(self):
        # The transmitter walks away from the receiver; per-attempt SINR
        # must trend down as the path loss grows.
        spec = ScenarioSpec(
            name="walkaway",
            nodes=(NodeSpec("tx", 5.0, 0.0), NodeSpec("rx", 0.0, 0.0)),
            flows=(FlowSpec(src="tx", dst="rx", n_packets=40,
                            interval_us=5_000.0),),
            mobility=(MobilitySpec(
                node="tx",
                waypoints=((0.0, 5.0, 0.0), (200_000.0, 120.0, 0.0)),
            ),),
            duration_us=220_000.0,
            data_rate_mbps=6,
        )
        result = run_scenario(spec, rng=2)
        samples = result.per_node["tx"].sinr_samples_db
        assert len(samples) >= 10
        assert samples[-1] < samples[0] - 20.0
