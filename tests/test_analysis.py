"""Unit tests for the analysis metrics."""

import numpy as np
import pytest

from repro.analysis import bit_error_rate, symbol_error_rate_per_subcarrier


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
