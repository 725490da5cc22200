"""Unit tests for the composite IndoorChannel."""

import numpy as np
import pytest

from repro.channel import IndoorChannel, PulseInterferer


class TestConstruction:
    def test_measured_snr_targeting(self):
        for target in (5.0, 12.0, 20.0):
            ch = IndoorChannel.position("A", snr_db=target, seed=1)
            assert ch.measured_snr_db == pytest.approx(target, abs=1e-6)

    def test_actual_snr_targeting(self):
        ch = IndoorChannel.position("B", snr_db=18.0, seed=2, snr_reference="actual")
        assert ch.actual_snr_db == pytest.approx(18.0, abs=1e-6)

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            IndoorChannel.position("A", snr_db=10.0, seed=0, snr_reference="bogus")

    def test_flat_channel(self):
        ch = IndoorChannel.flat(snr_db=15.0, seed=0)
        assert ch.actual_snr_db == pytest.approx(15.0, abs=1e-6)
        assert ch.measured_snr_db == pytest.approx(15.0, abs=1e-6)

    def test_negative_noise_rejected(self):
        from repro.channel.multipath import TappedDelayLine

        with pytest.raises(ValueError):
            IndoorChannel(tdl=TappedDelayLine.identity(), noise_var=-1.0)

    @pytest.mark.parametrize("noise_var", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise_var):
        from repro.channel.multipath import TappedDelayLine

        with pytest.raises(ValueError, match="noise_var"):
            IndoorChannel(tdl=TappedDelayLine.identity(), noise_var=noise_var)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"),
                                        float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            IndoorChannel.position("A", snr_db=snr_db, seed=0)
        with pytest.raises(ValueError, match="snr_db"):
            IndoorChannel.flat(snr_db=snr_db, seed=0)


class TestPropagation:
    def test_transmit_adds_noise(self, rng):
        ch = IndoorChannel.flat(snr_db=10.0, seed=4)
        wave = np.ones(1000, dtype=complex)
        out = ch.transmit(wave)
        assert not np.allclose(out, wave)
        assert out.shape == wave.shape

    def test_transmit_applies_interference(self):
        interferer = PulseInterferer(
            pulse_power=50.0, symbol_probability=1.0, rng=np.random.default_rng(0)
        )
        ch = IndoorChannel.flat(snr_db=40.0, seed=4)
        ch.interferer = interferer
        out = ch.transmit(np.zeros(160, dtype=complex))
        assert np.mean(np.abs(out) ** 2) > 1.0

    def test_evolution_changes_taps(self):
        ch = IndoorChannel.position("A", snr_db=15.0, seed=5)
        h_before = ch.frequency_response().copy()
        ch.evolve(0.5)  # long gap -> decorrelated
        assert not np.allclose(ch.frequency_response(), h_before)

    def test_evolution_preserves_mean_snr_statistics(self):
        """Measured SNR stays in a sane band as the channel drifts."""
        ch = IndoorChannel.position("B", snr_db=15.0, seed=6)
        snrs = []
        for _ in range(50):
            ch.evolve(0.02)
            snrs.append(ch.measured_snr_db)
        assert 5.0 < np.median(snrs) < 25.0

    def test_data_subcarrier_snrs_shape(self):
        ch = IndoorChannel.position("C", snr_db=12.0, seed=7)
        snrs = ch.data_subcarrier_snrs()
        assert snrs.shape == (48,)
        assert np.all(snrs > 0)
