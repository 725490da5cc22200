"""Smoke + shape tests for the per-figure experiment harnesses.

Each test runs a figure with a tiny budget and asserts the qualitative
claim the paper's figure makes — the same checks EXPERIMENTS.md reports
at full scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig2,
    fig3,
    fig5,
    fig6,
    fig7,
    fig9,
    fig10,
    network,
    runner,
    waterfall,
)
from repro.experiments.common import Claim, ExperimentConfig, check, check_all, print_table


class TestCommon:
    def test_print_table_runs(self, capsys):
        print_table(["a", "b"], [(1, 2.5), (3, 4.0)], title="t")
        out = capsys.readouterr().out
        assert "t" in out and "2.5" in out


class TestFig2:
    def test_gap_always_positive(self):
        result = fig2.run(snr_grid=np.array([6.0, 12.0, 15.0, 21.0]), realizations=2)
        assert result.gap_always_positive()

    def test_staircase_structure(self):
        result = fig2.run(snr_grid=np.array([12.5, 14.0, 16.0]), realizations=1)
        # All three fall in the 24 Mbps band -> same minimum required SNR.
        assert {p.min_required_snr_db for p in result.points} == {12.0}
        assert all(p.rate_mbps == 24 for p in result.points)

    def test_actual_above_measured(self):
        result = fig2.run(snr_grid=np.array([10.0, 20.0]), realizations=2)
        for p in result.points:
            assert p.actual_snr_db > p.measured_snr_db


class TestFig3:
    def test_ber_decreases_and_redundancy_grows(self):
        result = fig3.run(
            snr_grid=np.array([12.0, 14.5, 17.0]), n_packets=4, realizations=1
        )
        bers = [p.actual_ber for p in result.points]
        assert bers[0] > bers[-1]
        assert result.redundant_increases_with_snr()
        assert result.reference_ber > 0.01  # meaningful error rate at 12 dB


class TestFig5:
    def test_position_ordering(self):
        result = fig5.run(n_packets=4)
        assert set(result.evms) == {"A", "B", "C"}
        # Position A (most selective) has the largest EVM spread.
        assert result.spread_percent("A") > result.spread_percent("C")

    def test_evm_shapes(self):
        result = fig5.run(n_packets=3, positions=["A"])
        assert result.evms["A"].shape == (48,)
        assert np.all(result.evms["A"] >= 0)


class TestFig6:
    def test_period_is_subcarrier_count(self):
        result = fig6.run(n_packets=12)
        assert 44 <= result.dominant_period() <= 52

    def test_errors_concentrated_on_weak_subcarriers(self):
        result = fig6.run(n_packets=12)
        # The 8 weakest of 48 subcarriers carry a disproportionate share.
        assert result.weak_subcarrier_error_share(8) > 8 / 48

    def test_ser_shape(self):
        result = fig6.run(n_packets=6)
        assert result.subcarrier_ser.shape == (48,)
        assert result.position_error_freq.size <= 1000


class TestFig7:
    def test_nabla_small_and_bounded(self):
        result = fig7.run(n_trials=3)
        for tau in sorted(result.nabla_samples):
            med = result.median_nabla(tau)
            assert 0.0 <= med < 0.25, f"∇EVM at {tau} ms too large: {med}"

    def test_snapshots_recorded(self):
        result = fig7.run(n_trials=2)
        assert 0.0 in result.evm_snapshots
        assert result.evm_snapshots[0.0].shape == (48,)


@pytest.mark.slow
class TestFig9:
    def test_capacity_shape(self):
        result = fig9.run(n_packets=10, points_per_band=1, bands_mbps=(12, 54))
        # QPSK-1/2 sustains far more silences than 64QAM-3/4.
        assert result.ceiling(12) > result.ceiling(54)
        for p in result.points:
            assert p.prr >= 0.9

    def test_measure_prr_counts(self):
        prr, silences, airtime = fig9.measure_prr(
            ExperimentConfig(), snr_db=8.0, groups_per_packet=4, n_packets=4
        )
        assert 0.0 <= prr <= 1.0
        assert silences >= 4  # start marker + 4 groups when all embedded
        assert airtime > 0

    def test_failing_baseline_is_invalid_not_rm_zero(self, capsys):
        # The 12 Mbps band's low point: without any silence the fading
        # channel already loses more than 1 of 150 packets.
        result = fig9.run(n_packets=150, points_per_band=1, bands_mbps=(12,),
                          workers=0)
        (point,) = result.points
        assert point.rate_mbps == 12 and point.measured_snr_db == pytest.approx(7.4)
        assert point.prr < fig9.PRR_TARGET  # the measured baseline, not 1
        assert point.rm_per_sec is None and point.control_kbps is None
        assert not point.valid
        assert result.ceiling(12) == 0.0 and result.rm_rises_within_band(12)
        fig9.print_result(result)
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[:4] == ["7.4", "12", "-", "invalid"]


class TestFig10:
    def test_snapshot_contrast(self):
        snap = fig10.run_snapshot()
        assert snap.contrast_db() > 6.0
        assert len(snap.silent_data_subcarriers) >= 1

    def test_threshold_tradeoff(self):
        sweep = fig10.run_threshold_sweep(n_packets=4)
        # FN decreases with threshold, FP increases.
        assert sweep.false_negative[0] > sweep.false_negative[-1]
        assert sweep.false_positive[0] < sweep.false_positive[-1]

    def test_adaptive_accuracy_working_region(self):
        acc = fig10.run_accuracy_vs_snr(
            snrs_db=np.array([14.0, 18.0]), n_packets=4
        )
        assert np.all(acc.false_negative <= 0.02)
        assert np.all(acc.false_positive <= 0.1)

    def test_interference_raises_fn(self):
        clean = fig10.run_accuracy_vs_snr(snrs_db=np.array([14.0]), n_packets=4)
        noisy = fig10.run_interference(snrs_db=np.array([14.0]), n_packets=4)
        assert noisy.false_negative[0] > clean.false_negative[0]


@pytest.mark.slow
class TestAblations:
    def test_placement(self):
        result = ablations.run_placement(n_packets=10, groups_grid=[20, 60])
        assert result.weak_dominates()

    def test_evd(self):
        result = ablations.run_evd(n_packets=10, groups_grid=[20, 60])
        assert result.evd_dominates()


# One small result per stage, built with explicit sizes: (module, result).
SMALL_RESULTS = {
    "fig2": lambda: (fig2, fig2.run(snr_grid=np.array([6.0, 15.0]), realizations=1)),
    "fig3": lambda: (fig3, fig3.run(snr_grid=np.array([12.0, 17.0]), n_packets=2,
                                    realizations=1)),
    "fig5": lambda: (fig5, fig5.run(n_packets=2)),
    "fig6": lambda: (fig6, fig6.run(n_packets=4)),
    "fig7": lambda: (fig7, fig7.run(n_trials=2)),
    "fig9": lambda: (fig9, fig9.run(n_packets=2, points_per_band=1, bands_mbps=(54,))),
    "fig10": lambda: (fig10, fig10.Fig10Result(
        snapshot=fig10.run_snapshot(),
        threshold_sweep=fig10.run_threshold_sweep(n_packets=2),
        accuracy=fig10.run_accuracy_vs_snr(n_packets=2),
        interference=fig10.run_interference(n_packets=2),
    )),
    "ablations": lambda: (ablations, ablations.AblationsResult(
        placement=ablations.run_placement(n_packets=2, groups_grid=[20]),
        evd=ablations.run_evd(n_packets=2, groups_grid=[20]),
        coding=ablations.run_coding(n_packets=2),
        decoder_fidelity=ablations.run_decoder_fidelity(n_packets=3),
        detector=ablations.run_detector(n_sym=10),
        k=ablations.run_k(n_packets=2),
        flashback=ablations.run_flashback(n_packets=2),
    )),
    "network": lambda: (network, network.run(station_counts=[2],
                                             packets_per_station=5)),
    "waterfall": lambda: (waterfall, waterfall.run(snrs_db=np.array([4.0, 20.0]),
                                                   n_packets=2)),
}


class TestClaims:
    def test_every_stage_has_a_small_result(self):
        assert set(SMALL_RESULTS) == {name for name, _title, _fn in runner.STAGES}

    @pytest.mark.parametrize("stage", sorted(SMALL_RESULTS))
    def test_claims_named_and_unique(self, stage):
        module, result = SMALL_RESULTS[stage]()
        claims = module.claims(result)
        assert claims and all(isinstance(c, Claim) for c in claims)
        names = [c.name for c in claims]
        assert len(set(names)) == len(names)
        assert all(isinstance(c.holds, bool) for c in claims)

    def test_negative_fig2_gap_fails(self):
        result = fig2.run(snr_grid=np.array([6.0, 15.0]), realizations=1)
        assert {c.name: c.holds for c in fig2.claims(result)}["gap_always_positive"]
        result.points[1] = fig2.SnrGapPoint(
            measured_snr_db=15.0, min_required_snr_db=12.0, actual_snr_db=11.0,
            rate_mbps=24,
        )
        claim = {c.name: c for c in fig2.claims(result)}["gap_always_positive"]
        assert not claim.holds
        assert claim.measured == "-1 at 15 dB" and claim.bound == "> 0"

    def test_invalid_fig9_point_fails_rm_positive(self):
        valid = fig9.CapacityPoint(12.3, 24, 80_000.0, 300.0, 0.9933)
        invalid = fig9.CapacityPoint(7.4, 12, None, None, 0.84)
        assert {c.name: c.holds for c in fig9.claims(
            fig9.CapacityResult(points=[valid]))}["rm_positive"]
        claims = {c.name: c for c in fig9.claims(
            fig9.CapacityResult(points=[valid, invalid]))}
        assert not claims["rm_positive"].holds
        assert claims["rm_positive"].measured == "nan at 7.4 dB"

    def test_check_reports_the_worst_case(self):
        claim = check_all("c", ">=", [("a", 3.0, 1.0), ("b", 0.5, 1.0), ("c", 2.0, 1.0)])
        assert claim == Claim("c", False, "0.5 at b", ">= 1")
        assert check_all("c", "<", [("a", 1.0, 2.0), ("b", 1.5, 2.0)]).measured == "1.5 at b"
        assert not check("nan", float("nan"), "<", 1.0).holds
        assert check_all("none", ">", []).holds

    def test_stub_stage_prints_one_line_per_claim(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        stub_claims = [Claim("first", True, "1", "> 0"), Claim("second", False, "2", "< 1")]

        def stub(workers):
            print("== Stub table ==")
            return stub_claims

        monkeypatch.setattr(runner, "STAGES", (("stub", "Stub table", stub),))
        expected = ["claim stub.first: PASS  measured 1  bound > 0",
                    "claim stub.second: FAIL  measured 2  bound < 1"]

        assert main(["--quiet", "experiments", "stub"]) == 0  # a FAIL is no error
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("claim")] == expected

        target = tmp_path / "report.md"
        assert main(["--quiet", "report", str(target), "--stages", "stub"]) == 0
        report = target.read_text()
        assert [line for line in report.splitlines() if line.startswith("claim")] == expected
