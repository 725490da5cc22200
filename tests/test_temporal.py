"""Unit tests for temporal channel evolution."""

import math

import numpy as np
import pytest

from repro.channel import IndoorChannel
from repro.channel.multipath import TappedDelayLine
from repro.channel.temporal import (
    GaussMarkovEvolution,
    _j0,
    doppler_for_speed,
    jakes_correlation,
)

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _with_neighbours(points):
    """Each point and the doubles one ulp either side of it."""
    return [y for x in points
            for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


class TestJ0MatchesScipy:
    """The Cephes port returns scipy's double exactly, not approximately."""

    @pytest.fixture(scope="class")
    def scipy_j0(self):
        return pytest.importorskip("scipy.special").j0

    def _assert_identical(self, xs, scipy_j0):
        mismatches = [x for x in xs if _j0(x) != float(scipy_j0(x))]
        assert mismatches == []

    def test_branch_boundaries_and_their_neighbours(self, scipy_j0):
        xs = _with_neighbours([0.0, 1e-5, 5.0])
        self._assert_identical(xs + [-x for x in xs], scipy_j0)

    def test_asymptotic_branch_up_to_1e6(self, scipy_j0):
        self._assert_identical(np.geomspace(5.0, 1e6, 4000).tolist(), scipy_j0)

    @pytest.mark.parametrize("low, high", [(0.0, 1e-5), (1e-5, 5.0), (5.0, 1e3)])
    def test_seeded_sweep_of_each_branch(self, low, high, scipy_j0):
        xs = np.random.default_rng(2017).uniform(low, high, 20_000)
        self._assert_identical(xs.tolist() + (-xs).tolist(), scipy_j0)

    @pytest.mark.parametrize("doppler_hz", [12.2, 1.0])
    @pytest.mark.parametrize("tau_s", [1e-4, 1e-3, 0.010, 0.020, 0.030, 0.040])
    def test_harness_lags(self, tau_s, doppler_hz, scipy_j0):
        rho = jakes_correlation(tau_s, doppler_hz)
        assert type(rho) is float
        assert -0.41 < rho <= 1.0  # J0's global minimum is -0.4028
        assert rho == float(scipy_j0(2.0 * np.pi * doppler_hz * tau_s))


class TestJakes:
    def test_zero_lag(self):
        assert jakes_correlation(0.0, 10.0) == pytest.approx(1.0)

    def test_decreases_initially(self):
        rhos = [jakes_correlation(t, 12.0) for t in (0.001, 0.005, 0.01, 0.02)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_symmetric_in_tau(self):
        assert jakes_correlation(-0.01, 12.0) == jakes_correlation(0.01, 12.0)

    def test_doppler_walking_2ghz(self):
        fd = doppler_for_speed(1.52, 2.412e9)
        assert 11.0 < fd < 13.5

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            doppler_for_speed(-1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_lag_rejected(self, bad):
        with pytest.raises(ValueError, match="tau_s"):
            jakes_correlation(bad, 12.0)


class TestGaussMarkov:
    def test_zero_tau_no_change(self, rng):
        tdl = TappedDelayLine.from_profile(4, 1.0, rng)
        taps = tdl.taps.copy()
        GaussMarkovEvolution(tdl=tdl, rng=rng).advance(0.0)
        assert np.array_equal(tdl.taps, taps)

    def test_negative_tau_rejected(self, rng):
        evo = GaussMarkovEvolution(tdl=TappedDelayLine.identity(), rng=rng)
        with pytest.raises(ValueError):
            evo.advance(-1.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_tau_rejected(self, rng, bad):
        tdl = TappedDelayLine.from_profile(4, 1.0, rng)
        taps = tdl.taps.copy()
        evo = GaussMarkovEvolution(tdl=tdl, rng=rng)
        with pytest.raises(ValueError, match="tau_s"):
            evo.advance(bad)
        assert np.array_equal(tdl.taps, taps)

    @pytest.mark.parametrize("bad", NON_FINITE + [-1.0])
    def test_bad_doppler_rejected(self, rng, bad):
        with pytest.raises(ValueError, match="doppler_hz"):
            GaussMarkovEvolution(tdl=TappedDelayLine.identity(), doppler_hz=bad, rng=rng)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_channel_evolve_rejects_non_finite_tau(self, bad):
        channel = IndoorChannel.position("A", snr_db=15.0, seed=3)
        with pytest.raises(ValueError, match="tau_s"):
            channel.evolve(bad)
        assert math.isfinite(channel.measured_snr_db)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_channel_rejects_non_finite_doppler(self, bad):
        with pytest.raises(ValueError, match="doppler_hz"):
            IndoorChannel.position("A", snr_db=15.0, seed=3, doppler_hz=bad)

    def test_small_tau_small_change(self, rng):
        tdl = TappedDelayLine.from_profile(4, 1.0, rng)
        before = tdl.taps.copy()
        GaussMarkovEvolution(tdl=tdl, doppler_hz=1.0, rng=rng).advance(1e-3)
        assert np.linalg.norm(tdl.taps - before) < 0.1 * np.linalg.norm(before)

    def test_average_power_preserved(self):
        """Tap energy is statistically invariant under evolution."""
        energies = []
        for seed in range(60):
            local = np.random.default_rng(seed)
            tdl = TappedDelayLine.from_profile(4, 1.0, local)
            evo = GaussMarkovEvolution(tdl=tdl, doppler_hz=30.0, rng=local)
            for _ in range(20):
                evo.advance(0.01)
            energies.append(np.sum(np.abs(tdl.taps) ** 2))
        assert np.mean(energies) == pytest.approx(1.0, rel=0.15)

    def test_empirical_correlation_matches_jakes(self):
        """One-step correlation of a tap ≈ J0(2 pi fd tau)."""
        tau, fd = 0.01, 12.0
        before, after = [], []
        for seed in range(400):
            local = np.random.default_rng(seed)
            tdl = TappedDelayLine.from_profile(1, 1.0, local)
            evo = GaussMarkovEvolution(tdl=tdl, doppler_hz=fd, rng=local)
            b = tdl.taps[0]
            evo.advance(tau)
            before.append(b)
            after.append(tdl.taps[0])
        before = np.array(before)
        after = np.array(after)
        rho_hat = np.real(
            np.mean(before * np.conj(after))
            / np.sqrt(np.mean(np.abs(before) ** 2) * np.mean(np.abs(after) ** 2))
        )
        assert rho_hat == pytest.approx(jakes_correlation(tau, fd), abs=0.08)

    def test_snapshot_is_independent_copy(self, rng):
        tdl = TappedDelayLine.from_profile(3, 1.0, rng)
        evo = GaussMarkovEvolution(tdl=tdl, rng=rng)
        snap = evo.snapshot()
        evo.advance(0.1)
        assert not np.array_equal(snap.taps, tdl.taps)
