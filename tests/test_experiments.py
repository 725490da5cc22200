"""Smoke + shape tests for the per-figure experiment harnesses.

Each test runs a figure with a tiny budget and asserts the qualitative
claim the paper's figure makes — the same checks EXPERIMENTS.md reports
at full scale.
"""

import numpy as np
import pytest

from repro.experiments import ablations, fig2, fig3, fig5, fig6, fig7, fig9, fig10
from repro.experiments.common import ExperimentConfig, print_table


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
