"""Tests for the network-level comparison experiment and the runner."""

import copy
import dataclasses
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.engine import store as store_mod
from repro.engine.store import ResultStore
from repro.experiments import network


@pytest.fixture(scope="module", autouse=True)
def _shared_store(tmp_path_factory):
    """One result store for the module: every ``network.run`` runs the
    same hidden-node matrix, which the store then replays."""
    store = ResultStore(tmp_path_factory.mktemp("store"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store_mod, "_default_store", store)
        yield


@pytest.fixture(scope="module")
def small():
    return network.run(station_counts=[2, 6], packets_per_station=20)


def _fake(goodput_mbps, control_airtime_fraction=0.0):
    """A stand-in for a :class:`repro.net.NetResult` of one ring run."""
    return SimpleNamespace(aggregate_goodput_mbps=goodput_mbps,
                           control_airtime_fraction=control_airtime_fraction)


#: A hidden-node controller matrix on which every claim holds.
PASSING_MATRIX = {"controllers": {
    "cos-feedback": {"goodput_mbps": 20.0, "control_airtime_fraction": 0.0},
    "explicit-feedback": {"goodput_mbps": 10.0,
                          "control_airtime_fraction": 0.1},
    "minstrel": {"goodput_mbps": 15.0, "control_airtime_fraction": 0.0},
    "samplerate": {"goodput_mbps": 15.0, "control_airtime_fraction": 0.0},
}}

#: Cross-cell AP-side deliveries on which the cross-cell claim holds.
PASSING_CROSS_CELL = {"cos-feedback": 50.0, "explicit-feedback": 0.0}


class TestNetworkExperiment:
    def test_cos_never_loses_goodput(self, small):
        claim = network.claims(small)[0]
        assert claim.name == "cos_never_loses_goodput" and claim.holds
        for e, c in zip(small.explicit, small.cos):
            assert c.aggregate_goodput_mbps >= e.aggregate_goodput_mbps

    def test_explicit_pays_airtime(self, small):
        assert all(e.control_airtime_fraction > 0.02 for e in small.explicit)
        assert all(c.control_airtime_fraction == 0.0 for c in small.cos)

    def test_print_result(self, small, capsys):
        network.print_result(small)
        out = capsys.readouterr().out
        assert "Network comparison" in out
        assert "Rate-controller matrix on hidden-node" in out
        assert "Cross-BSS control on cross-cell" in out
        assert "FAIL" not in out

    def test_claim_names_failing_station_count(self):
        result = network.NetworkComparisonResult(
            station_counts=[2, 3],
            explicit=[_fake(10.0), _fake(10.0)],
            cos=[_fake(10.0), _fake(5.0)],  # CoS clearly loses at 3 stations
            hidden_node=PASSING_MATRIX, cross_cell=PASSING_CROSS_CELL,
        )
        claim = network.claims(result)[0]
        assert claim.name == "cos_never_loses_goodput"
        assert not claim.holds
        assert claim.measured == "5 at 3 stations" and claim.bound == ">= 10"

    def test_goodput_claim_has_no_slack(self):
        """Any shortfall, however small, fails the claim."""
        for cos_mbps, holds in ((10.0 * (1.0 - 1e-9), False), (10.0, True)):
            result = network.NetworkComparisonResult(
                station_counts=[4], explicit=[_fake(10.0)],
                cos=[_fake(cos_mbps)], hidden_node=PASSING_MATRIX,
                cross_cell=PASSING_CROSS_CELL,
            )
            assert network.claims(result)[0].holds == holds

    def test_payload_and_rate_are_threaded(self):
        small = network.run(station_counts=[2], payload_octets=256,
                            packets_per_station=20)
        large = network.run(station_counts=[2], payload_octets=2048,
                            packets_per_station=20)
        # Larger payloads amortise MAC overhead: higher goodput.
        assert (
            large.cos[0].aggregate_goodput_mbps
            > small.cos[0].aggregate_goodput_mbps
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

    def test_net_backend(self, small):
        """Every ring cell is a repro.net run of the contention scenario
        under its own control scheme."""
        assert [r.scenario for r in small.cos] == ["contention-2", "contention-6"]
        assert [r.control for r in small.explicit] == ["explicit", "explicit"]
        assert [r.control for r in small.cos] == ["cos", "cos"]

    def test_hidden_node_rows(self, small):
        """The hidden-node controller matrix joins the goodput and airtime
        claims as one more row, and CoS feedback beats the feedback-free
        samplers there."""
        claims = {c.name: c for c in network.claims(small)
                  if c.name != "cross_cell_control_crosses"}
        assert all(c.holds for c in claims.values())
        assert claims["cos_beats_feedback_free"].measured.endswith("at hidden-node")
        report = copy.deepcopy(small.hidden_node)
        report["controllers"]["cos-feedback"]["goodput_mbps"] = 0.0
        failed = {c.name: c for c in network.claims(
            dataclasses.replace(small, hidden_node=report))}
        for name in ("cos_never_loses_goodput", "cos_beats_feedback_free"):
            assert not failed[name].holds
            assert failed[name].measured == "0 at hidden-node"


    def test_cross_cell_counts_ap_side_deliveries(self, small):
        """The cross-cell row runs the two feedback controllers and
        keeps the messages the APs consume: under explicit feedback no
        AP-to-AP frame decodes, so none is delivered."""
        assert set(small.cross_cell) == {"cos-feedback", "explicit-feedback"}
        assert small.cross_cell["explicit-feedback"] == 0.0
        assert small.cross_cell["cos-feedback"] >= 0.0

    @pytest.mark.parametrize("cos_ap,exp_ap,holds", [
        (50.0, 0.0, True),
        (0.0, 0.0, False),  # nothing crosses over CoS either
        (50.0, 1.0, False),  # explicit control reached across
    ])
    def test_cross_cell_claim(self, cos_ap, exp_ap, holds):
        result = network.NetworkComparisonResult(
            station_counts=[4], explicit=[_fake(10.0, 0.1)],
            cos=[_fake(10.0)], hidden_node=PASSING_MATRIX,
            cross_cell={"cos-feedback": cos_ap, "explicit-feedback": exp_ap},
        )
        claim = {c.name: c for c in network.claims(result)}[
            "cross_cell_control_crosses"]
        assert claim.holds == holds
        assert claim.bound == "CoS > 0, explicit == 0"


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
