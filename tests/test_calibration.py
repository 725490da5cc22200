"""Tests for building the control-rate table from capacity measurements."""

from dataclasses import dataclass

import pytest

from repro.cos.rate_control import ControlRateController, ControlRateTable


@dataclass
class _Point:
    measured_snr_db: float
    rate_mbps: int
    rm_per_sec: float


class TestFromMeasurements:
    def test_single_band_calibration(self):
        points = [
            _Point(12.3, 24, 50_000.0),
            _Point(17.0, 24, 90_000.0),
        ]
        table = ControlRateTable.from_measurements(points)
        assert table.rm_for(12.0) == pytest.approx(50_000.0)
        assert table.rm_for(17.25) == pytest.approx(90_000.0, rel=0.05)

    def test_other_bands_keep_defaults(self):
        points = [_Point(12.3, 24, 50_000.0)]
        table = ControlRateTable.from_measurements(points)
        default = ControlRateTable()
        assert table.rm_for(8.0) == default.rm_for(8.0)

    def test_single_point_band_flat(self):
        points = [_Point(14.0, 24, 64_000.0)]
        table = ControlRateTable.from_measurements(points)
        assert table.rm_for(12.1) == pytest.approx(64_000.0)
        assert table.rm_for(17.2) == pytest.approx(64_000.0)

    def test_non_monotone_measurement_clamped(self):
        """A noisy high-SNR point below the low one must not invert."""
        points = [
            _Point(12.3, 24, 80_000.0),
            _Point(17.0, 24, 60_000.0),
        ]
        table = ControlRateTable.from_measurements(points)
        assert table.rm_for(17.2) >= table.rm_for(12.1)

    def test_calibrated_table_drives_controller(self):
        points = [_Point(12.5, 24, 10_000.0), _Point(17.0, 24, 20_000.0)]
        table = ControlRateTable.from_measurements(points)
        controller = ControlRateController(table=table)
        default_ctrl = ControlRateController()
        assert (
            controller.allocation(15.0, 60).target_silences
            < default_ctrl.allocation(15.0, 60).target_silences
        )

    def test_roundtrip_with_fig9_result_type(self):
        from repro.experiments.fig9 import CapacityPoint, CapacityResult

        result = CapacityResult(
            points=[
                CapacityPoint(12.3, 24, 55_000.0, 220.0, 1.0),
                CapacityPoint(16.9, 24, 95_000.0, 380.0, 1.0),
            ]
        )
        table = ControlRateTable.from_measurements(result.points)
        assert table.rm_for(12.1) == pytest.approx(55_000.0, rel=0.05)

    def test_invalid_fig9_points_keep_the_base_entry(self):
        from repro.experiments.fig9 import CapacityPoint

        points = [
            CapacityPoint(7.4, 12, None, None, 0.84),
            CapacityPoint(12.3, 24, 55_000.0, 220.0, 1.0),
        ]
        base = ControlRateTable()
        table = ControlRateTable.from_measurements(points, base=base)
        assert table.rm_by_rate[12] == base.rm_by_rate[12]
        assert table.rm_by_rate[24] == (55_000.0, 55_000.0)
