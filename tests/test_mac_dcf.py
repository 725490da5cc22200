"""Unit tests for 802.11 DCF: the contention-window rules
(:class:`BackoffState`) and the per-node MAC (:class:`repro.net.mac
.NodeMac`) that runs them in the spatial simulator."""

import pytest

from repro.mac.dcf import (
    ACK_US,
    CW_MAX,
    CW_MIN,
    MAX_RETRIES,
    BackoffState,
    frame_airtime_us,
)
from repro.net import FlowSpec, NodeSpec, ScenarioSpec, run_scenario
from repro.net.scenarios import contention
from repro.phy.params import RATE_TABLE


def _pair(flows, distance_m=10.0, **overrides):
    """Two nodes ``distance_m`` apart carrying ``flows``."""
    return ScenarioSpec(
        name="pair",
        nodes=(NodeSpec("a"), NodeSpec("b", distance_m, 0.0)),
        flows=tuple(flows),
        **overrides,
    )


class TestStation:
    """One station's DCF state: the backoff window and the retry limit."""

    def test_backoff_in_window(self, rng):
        backoff = BackoffState()
        for _ in range(50):
            assert 0 <= backoff.draw(rng) <= CW_MIN
            assert backoff.slots <= CW_MIN

    def test_collision_doubles_cw(self):
        backoff = BackoffState()
        backoff.on_failure()
        assert backoff.cw == 2 * (CW_MIN + 1) - 1
        assert backoff.slots is None  # a failure forces a fresh draw

    def test_cw_capped(self):
        backoff = BackoffState()
        for _ in range(12):
            backoff.on_failure()
        assert backoff.cw == CW_MAX

    def test_retry_limit_drops(self):
        """A flow to an unreachable node: each frame is tried once plus
        ``MAX_RETRIES`` retries, then dropped."""
        n_packets = 3
        result = run_scenario(
            _pair([FlowSpec("a", "b", n_packets=n_packets)], distance_m=5000.0),
            rng=0,
        )
        stats = result.per_node["a"]
        assert stats.data_delivered == 0
        assert stats.data_dropped == n_packets
        assert stats.data_attempts == n_packets * (MAX_RETRIES + 1)
        assert stats.failures == stats.data_attempts

    def test_success_resets(self, rng):
        backoff = BackoffState()
        for _ in range(4):
            backoff.on_failure()
        backoff.draw(rng)
        backoff.reset()
        assert backoff.cw == CW_MIN
        assert backoff.slots is None


class TestSimulator:
    """DCF behaviour of whole runs on the spatial simulator."""

    def test_single_station_delivers_everything(self):
        result = run_scenario(
            contention(n_stations=1, n_packets=10, data_rate_mbps=24), rng=1
        )
        stats = result.per_node["sta0"]
        assert stats.data_delivered == 10
        assert stats.failures == 0
        assert stats.payload_bits_delivered == 10 * 1024 * 8

    def test_airtime_accounting_consistent(self):
        result = run_scenario(
            contention(n_stations=1, n_packets=10, data_rate_mbps=24), rng=1
        )
        data_us = frame_airtime_us(1024, RATE_TABLE[24])
        assert result.airtime_us["data"] == pytest.approx(10 * data_us)
        assert result.airtime_us["ack"] == pytest.approx(10 * ACK_US)
        assert sum(result.airtime_us.values()) <= result.elapsed_us

    def test_control_latency_recorded(self):
        result = run_scenario(
            contention(control="explicit", n_stations=1, n_packets=1), rng=4
        )
        latencies = result.per_node["sta0"].control_latencies_us
        assert len(latencies) == 1
        assert latencies[0] > 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(name="dup", nodes=(NodeSpec("a"), NodeSpec("a")),
                         flows=())

    def test_empty_station_list_rejected(self):
        with pytest.raises(ValueError, match="at least one station"):
            contention(n_stations=0)

    def test_idle_when_no_traffic(self):
        result = run_scenario(_pair([]), rng=5)
        assert result.airtime_us == {}
        assert result.aggregate_goodput_mbps == 0.0

    def test_deterministic_given_seed(self):
        def run():
            return run_scenario(contention(n_stations=4, n_packets=20), rng=7)

        assert run().to_dict() == run().to_dict()
