"""Tests for the network-level comparison experiment and the runner."""

import pytest

from repro.cli import main
from repro.experiments import network


class TestNetworkExperiment:
    def test_cos_never_loses_goodput(self):
        result = network.run(station_counts=[2, 6])
        assert result.cos_never_loses_goodput()
        assert result.goodput_violations() == []

    def test_explicit_pays_airtime(self):
        result = network.run(station_counts=[4])
        assert result.explicit_control_airtime() > 0.02
        assert result.cos[0].control_airtime_fraction == 0.0

    def test_lower_delivery_prob_costs_latency(self):
        good = network.run(station_counts=[4], cos_delivery_prob=0.99)
        bad = network.run(station_counts=[4], cos_delivery_prob=0.6)
        assert (
            bad.cos[0].mean_control_latency_us
            > good.cos[0].mean_control_latency_us
        )

    def test_print_result(self, capsys):
        result = network.run(station_counts=[2])
        network.print_result(result)
        out = capsys.readouterr().out
        assert "Network comparison" in out
        assert "FAIL" not in out

    def test_claim_names_failing_station_count(self):
        from types import SimpleNamespace

        fake = lambda mbps: SimpleNamespace(
            goodput_mbps=mbps,
            control_airtime_fraction=0.0,
            mean_control_latency_us=0.0,
        )
        result = network.NetworkComparisonResult(
            station_counts=[2, 3],
            explicit=[fake(10.0), fake(10.0)],
            cos=[fake(10.0), fake(5.0)],  # CoS clearly loses at 3 stations
        )
        assert not result.cos_never_loses_goodput()
        claim = network.claims(result)[0]
        assert claim.name == "cos_never_loses_goodput"
        assert not claim.holds
        assert claim.measured == "5 at 3 stations" and claim.bound == ">= 10"

    def test_goodput_claim_has_no_slack(self):
        """The claim is ``cos_never_loses_goodput(rel_tol=0.0)``: a
        shortfall inside GOODPUT_REL_TOL still fails it."""
        from types import SimpleNamespace

        fake = lambda mbps: SimpleNamespace(goodput_mbps=mbps,
                                            control_airtime_fraction=0.0)
        within = 10.0 * (1.0 - network.GOODPUT_REL_TOL / 2)
        for cos_mbps in (within, 10.0):
            result = network.NetworkComparisonResult(
                station_counts=[4], explicit=[fake(10.0)], cos=[fake(cos_mbps)]
            )
            claim = network.claims(result)[0]
            assert claim.holds == result.cos_never_loses_goodput(rel_tol=0.0)
            assert claim.holds == (cos_mbps == 10.0)

    def test_relative_tolerance_is_named_and_relative(self):
        from types import SimpleNamespace

        fake = lambda mbps: SimpleNamespace(goodput_mbps=mbps)
        # A shortfall inside the relative tolerance is not a violation.
        within = 10.0 * (1.0 - network.GOODPUT_REL_TOL / 2)
        result = network.NetworkComparisonResult(
            station_counts=[4], explicit=[fake(10.0)], cos=[fake(within)]
        )
        assert result.cos_never_loses_goodput()

    def test_payload_and_rate_are_threaded(self):
        small = network.run(station_counts=[2], payload_octets=256,
                            packets_per_station=20)
        large = network.run(station_counts=[2], payload_octets=2048,
                            packets_per_station=20)
        # Larger payloads amortise MAC overhead: higher goodput.
        assert (
            large.cos[0].goodput_mbps > small.cos[0].goodput_mbps
        )
        slow = network.run(station_counts=[2], data_rate_mbps=6,
                           packets_per_station=20)
        fast = network.run(station_counts=[2], data_rate_mbps=54,
                           packets_per_station=20)
        # At a higher data rate the (base-rate) control frames make up a
        # larger share of the busy airtime.
        assert (
            fast.explicit[0].control_airtime_fraction
            > slow.explicit[0].control_airtime_fraction
        )

    def test_net_backend(self):
        result = network.run(station_counts=[2], backend="net",
                             packets_per_station=20)
        assert result.backend == "net"
        assert result.cos_never_loses_goodput()
        assert result.explicit_control_airtime() > 0.02
        assert result.cos[0].control_airtime_fraction == 0.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            network.run(station_counts=[2], backend="warp")


class TestRunner:
    def test_runner_subset(self, capsys):
        assert main(["--quiet", "experiments", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "Fig. 3" not in out

    def test_runner_network_stage(self, capsys):
        assert main(["--quiet", "experiments", "network"]) == 0
        out = capsys.readouterr().out
        assert "Network comparison" in out

    def test_unknown_stage_is_noop(self, capsys):
        """An unknown stage exits 2 and runs nothing, not even the valid
        stages named beside it; the error lists the valid names."""
        from repro.experiments.runner import select_stages

        assert main(["--quiet", "experiments", "fig2", "not-a-stage"]) == 2
        assert "Fig." not in capsys.readouterr().out
        with pytest.raises(ValueError, match="valid stages: fig2, fig3"):
            select_stages(["not-a-stage"])

    def test_cli_unknown_stage_exits_2(self, tmp_path, capsys):
        assert main(["--quiet", "experiments", "not-a-stage"]) == 2
        target = tmp_path / "r.md"
        assert main(["--quiet", "report", str(target),
                     "--stages", "not-a-stage"]) == 2
        assert not target.exists()
        assert "Fig." not in capsys.readouterr().out
