"""Tests for receiver-internal estimators (phase, noise, validation)."""

import numpy as np
import pytest

from repro.channel import IndoorChannel, add_awgn
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.ofdm import map_to_grid


class TestPilotPhaseTracking:
    def test_zero_phase_clean(self, rng):
        grid = map_to_grid(
            (rng.standard_normal((4, 48)) + 1j * rng.standard_normal((4, 48)))
            / np.sqrt(2)
        )
        h_est = np.ones((1, 64), dtype=complex)
        phase, residuals = Receiver._pilot_phase_batch(
            grid[None], h_est, symbol_offset=0
        )
        assert np.allclose(phase, 0.0, atol=1e-9)
        assert np.allclose(residuals, 0.0, atol=1e-9)

    def test_recovers_common_phase(self, rng):
        grid = map_to_grid(np.zeros((3, 48), dtype=complex), symbol_offset=2)
        rotated = grid * np.exp(1j * 0.3)
        phase, _ = Receiver._pilot_phase_batch(
            rotated[None], np.ones((1, 64), dtype=complex), 2
        )
        assert np.allclose(phase, 0.3, atol=1e-9)

    def test_residuals_reflect_noise(self, rng):
        grid = map_to_grid(np.zeros((200, 48), dtype=complex))
        noise_var = 0.02
        noisy = grid + np.sqrt(noise_var / 2) * (
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        )
        _, residuals = Receiver._pilot_phase_batch(
            noisy[None], np.ones((1, 64), dtype=complex), 0
        )
        measured = np.mean(np.abs(residuals) ** 2)
        assert measured == pytest.approx(noise_var, rel=0.15)


class TestNoiseRefinement:
    def test_empty_residuals_keep_ltf(self):
        (refined,) = Receiver._refine_noise_batch(
            np.array([0.05]), np.zeros((1, 0))
        )
        assert refined == 0.05

    def test_blend(self):
        residuals = np.full(100, 0.2 + 0.0j)  # power 0.04
        (refined,) = Receiver._refine_noise_batch(
            np.array([0.02]), residuals[None]
        )
        assert refined == pytest.approx(0.5 * (0.02 + 0.04))


class TestReceiverValidation:
    def test_invalid_decision_mode(self):
        with pytest.raises(ValueError):
            Receiver(decision="fuzzy")

    def test_noise_var_estimate_tracks_truth(self, psdu):
        """End-to-end: the pilot-aided estimate lands near the injected
        subcarrier noise variance (eq. (5)-(6) fidelity)."""
        from repro.phy.ofdm import subcarrier_noise_variance

        estimates, truths = [], []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            time_var = 10 ** (-18 / 10)
            frame = Transmitter().transmit(psdu, RATE_TABLE[12])
            noisy = add_awgn(frame.waveform, time_var, rng)
            obs = Receiver().observe(noisy)
            estimates.append(obs.noise_var)
            truths.append(subcarrier_noise_variance(time_var))
        assert np.mean(estimates) == pytest.approx(np.mean(truths), rel=0.25)

    def test_csi_weights_scale_with_gain(self):
        """Weak subcarriers must get proportionally weak LLRs end to end."""
        channel = IndoorChannel.position("A", snr_db=15.0, seed=27)
        psdu = build_mpdu(bytes(300))
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        obs = Receiver().observe(channel.transmit(frame.waveform))
        gains = np.abs(obs.h_data) ** 2
        # The weakest subcarrier's gain is far below the strongest; the
        # CSI ratio used in decode is gains/noise, so the contrast there
        # is what protects the Viterbi metric from garbage.
        assert gains.max() / gains.min() > 2.0


class TestObserveEdgeCases:
    def test_exact_minimum_length(self, psdu):
        frame = Transmitter().transmit(psdu, RATE_TABLE[54])
        minimum = 320 + 80  # preamble + SIGNAL only
        obs = Receiver().observe(frame.waveform[:minimum])
        assert obs is not None
        assert obs.raw_data_grid.shape[0] == 0

    def test_one_sample_short(self, psdu):
        frame = Transmitter().transmit(psdu, RATE_TABLE[54])
        assert Receiver().observe(frame.waveform[: 320 + 79]) is None

    def test_extra_trailing_samples_ignored(self, psdu, rng):
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        padded = np.concatenate([frame.waveform, np.zeros(37, dtype=complex)])
        result = Receiver().receive(padded)
        assert result.ok
