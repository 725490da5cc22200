"""Unit tests for SNR-threshold rate adaptation (:mod:`repro.ratectl.staircase`)."""

import pytest

from repro.phy.params import RATE_TABLE
from repro.ratectl import DEFAULT_THRESHOLDS, RateAdapter, min_required_snr_db, select_rate


class TestSelection:
    def test_paper_anchor_24mbps(self):
        """At measured 15 dB the paper selects 24 Mbps (min required 12)."""
        rate = select_rate(15.0)
        assert rate.mbps == 24
        assert min_required_snr_db(rate) == 12.0

    def test_floor_rate(self):
        assert select_rate(-10.0).mbps == min(DEFAULT_THRESHOLDS)

    def test_top_rate(self):
        assert select_rate(40.0).mbps == 54

    def test_monotone_in_snr(self):
        rates = [select_rate(s).mbps for s in range(0, 30)]
        assert rates == sorted(rates)

    def test_exact_threshold_selects_rate(self):
        for mbps, threshold in DEFAULT_THRESHOLDS.items():
            assert select_rate(threshold).mbps == mbps


class TestBands:
    def test_band_edges(self):
        adapter = RateAdapter()
        low, high = adapter.band(RATE_TABLE[24])
        assert low == 12.0
        assert high == 17.3

    def test_top_band_open(self):
        adapter = RateAdapter()
        low, high = adapter.band(RATE_TABLE[54])
        assert low == 22.4
        assert high == float("inf")

    def test_bands_tile_the_axis(self):
        adapter = RateAdapter()
        for snr in [x / 2 for x in range(6, 60)]:
            rate = adapter.select(snr)
            low, high = adapter.band(rate)
            assert low <= snr < high


class TestValidation:
    def test_non_monotone_thresholds_rejected(self):
        with pytest.raises(ValueError):
            RateAdapter(thresholds={6: 5.0, 9: 4.0})

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError):
            RateAdapter(thresholds={7: 5.0})

    def test_missing_threshold_lookup(self):
        adapter = RateAdapter(thresholds={6: 2.0, 12: 7.0})
        with pytest.raises(KeyError):
            adapter.min_required_snr_db(RATE_TABLE[54])
