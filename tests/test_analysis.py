"""Unit tests for analysis metrics and statistics."""

import numpy as np
import pytest

from repro.analysis import (
    binomial_confidence,
    bit_error_rate,
    empirical_cdf,
    packet_reception_rate,
    symbol_error_positions,
    symbol_error_rate_per_subcarrier,
    wilson_interval,
)


class TestBer:
    def test_zero(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert bit_error_rate(bits, bits) == 0.0

    def test_half(self):
        assert bit_error_rate(np.array([0, 0]), np.array([0, 1])) == 0.5

    def test_empty(self):
        assert bit_error_rate(np.zeros(0), np.zeros(0)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate(np.zeros(3), np.zeros(4))


class TestSymbolErrors:
    def test_positions(self):
        sent = np.ones((2, 48), dtype=complex)
        got = sent.copy()
        got[1, 5] = -1.0
        errors = symbol_error_positions(sent, got)
        assert errors.sum() == 1 and errors[1, 5]

    def test_exclude_mask(self):
        sent = np.ones((1, 48), dtype=complex)
        got = sent.copy()
        got[0, 3] = 0.0
        mask = np.zeros((1, 48), dtype=bool)
        mask[0, 3] = True
        assert symbol_error_positions(sent, got, exclude_mask=mask).sum() == 0

    def test_ser_per_subcarrier(self):
        g1 = np.zeros((4, 48), dtype=bool)
        g1[:, 7] = True
        g2 = np.zeros((4, 48), dtype=bool)
        ser = symbol_error_rate_per_subcarrier([g1, g2])
        assert ser[7] == 0.5
        assert ser[0] == 0.0

    def test_ser_requires_grids(self):
        with pytest.raises(ValueError):
            symbol_error_rate_per_subcarrier([])


class TestPrr:
    def test_values(self):
        assert packet_reception_rate([True, True, False, True]) == 0.75
        assert packet_reception_rate([]) == 0.0


class TestStatistics:
    def test_cdf_monotone(self, rng):
        values, probs = empirical_cdf(rng.normal(size=100))
        assert np.all(np.diff(values) >= 0)
        assert probs[0] == pytest.approx(0.01)
        assert probs[-1] == 1.0

    def test_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_binomial_confidence_contains_p(self):
        low, high = binomial_confidence(93, 100)
        assert low < 0.93 < high
        assert 0.85 < low and high < 0.99

    def test_binomial_edge_cases(self):
        low, high = binomial_confidence(0, 10)
        assert low == 0.0 and high < 0.4
        low, high = binomial_confidence(10, 10)
        assert high == 1.0 and low > 0.6

    def test_binomial_invalid(self):
        with pytest.raises(ValueError):
            binomial_confidence(5, 0)
        with pytest.raises(ValueError):
            binomial_confidence(11, 10)

    def test_wilson_contains_p(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high

    def test_wilson_bounded(self):
        low, high = wilson_interval(0, 5)
        assert low == 0.0
        low, high = wilson_interval(5, 5)
        assert high == 1.0

    @pytest.mark.parametrize("interval", [binomial_confidence, wilson_interval])
    @pytest.mark.parametrize("successes, trials, level, bad", [
        (5, 3, 0.95, "successes"),
        (-1, 10, 0.95, "successes"),
        (3, 0, 0.95, "trials"),
        (3, 10, 1.5, "level"),
        (3, 10, 0.0, "level"),
        (3, 10, 1.0, "level"),
        (3, 10, float("nan"), "level"),
    ])
    def test_intervals_reject_bad_arguments(self, interval, successes, trials,
                                            level, bad):
        with pytest.raises(ValueError, match=bad):
            interval(successes, trials, level=level)
