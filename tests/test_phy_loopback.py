"""Integration tests: full transmitter -> channel -> receiver loop."""

import numpy as np
import pytest

from repro.channel import IndoorChannel, TappedDelayLine, add_awgn
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu


class TestNoiselessLoopback:
    @pytest.mark.parametrize("mbps", sorted(RATE_TABLE))
    def test_all_rates(self, mbps, payload, psdu):
        frame = Transmitter().transmit(psdu, RATE_TABLE[mbps])
        result = Receiver().receive(frame.waveform)
        assert result.ok
        assert result.mpdu.payload == payload
        assert result.signal.rate.mbps == mbps
        assert result.signal.length == len(psdu)

    def test_various_lengths(self):
        for n in (1, 7, 64, 333, 1500):
            psdu = build_mpdu(bytes(n))
            frame = Transmitter().transmit(psdu, RATE_TABLE[54])
            assert Receiver().receive(frame.waveform).ok

    def test_silence_mask_decodes_with_erasures(self, payload, psdu, rng):
        rate = RATE_TABLE[24]
        tx = Transmitter()
        n_sym = tx.n_data_symbols_for(len(psdu), rate)
        mask = np.zeros((n_sym, 48), dtype=bool)
        mask[::3, 10] = True  # silence a subcarrier in every third symbol
        frame = tx.transmit(psdu, rate, silence_mask=mask)
        result = Receiver().receive(frame.waveform, erasure_mask=mask)
        assert result.ok and result.mpdu.payload == payload

    def test_silenced_symbols_have_zero_power(self, psdu):
        rate = RATE_TABLE[24]
        tx = Transmitter()
        n_sym = tx.n_data_symbols_for(len(psdu), rate)
        mask = np.zeros((n_sym, 48), dtype=bool)
        mask[0, 5] = True
        frame = tx.transmit(psdu, rate, silence_mask=mask)
        obs = Receiver().observe(frame.waveform)
        assert abs(obs.raw_data_grid[0, 5]) < 1e-9
        assert abs(obs.raw_data_grid[0, 6]) > 0.1


class TestNoisyLoopback:
    def test_awgn_high_snr(self, payload, psdu, rng):
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        noisy = add_awgn(frame.waveform, 10 ** (-20 / 10), rng)
        result = Receiver().receive(noisy)
        assert result.ok and result.mpdu.payload == payload

    def test_low_snr_fails_gracefully(self, psdu, rng):
        frame = Transmitter().transmit(psdu, RATE_TABLE[54])
        noisy = add_awgn(frame.waveform, 10 ** (5 / 10), rng)  # SNR -5 dB
        result = Receiver().receive(noisy)
        assert not result.ok  # no crash, clean failure

    def test_multipath_only(self, payload, psdu, rng):
        tdl = TappedDelayLine.for_position("A", rng)
        frame = Transmitter().transmit(psdu, RATE_TABLE[36])
        result = Receiver().receive(tdl.apply(frame.waveform))
        assert result.ok and result.mpdu.payload == payload

    @pytest.mark.parametrize("position", ["A", "B", "C"])
    def test_indoor_channel_good_snr(self, position, payload, psdu):
        channel = IndoorChannel.position(position, snr_db=25.0, seed=3)
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        result = Receiver().receive(channel.transmit(frame.waveform))
        assert result.ok and result.mpdu.payload == payload

    def test_rate_adaptation_band_edges_decode(self, payload, psdu):
        """Every rate decodes at its own minimum required SNR."""
        from repro.ratectl import DEFAULT_THRESHOLDS

        for mbps, threshold in DEFAULT_THRESHOLDS.items():
            channel = IndoorChannel.position("A", snr_db=threshold + 0.5, seed=11)
            frame = Transmitter().transmit(psdu, RATE_TABLE[mbps])
            result = Receiver().receive(channel.transmit(frame.waveform))
            assert result.ok, f"{mbps} Mbps failed at {threshold + 0.5} dB"


class TestReceiverDiagnostics:
    def test_observation_contents(self, psdu, clean_channel):
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        obs = Receiver().observe(clean_channel.transmit(frame.waveform))
        assert obs.signal is not None
        assert obs.raw_data_grid.shape == (frame.n_data_symbols, 48)
        assert obs.eq_data_grid.shape == (frame.n_data_symbols, 48)
        assert obs.noise_var > 0
        assert obs.h_data.shape == (48,)

    def test_pre_viterbi_bits_exposed(self, psdu, clean_channel):
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        result = Receiver().receive(clean_channel.transmit(frame.waveform))
        assert result.pre_viterbi_bits is not None
        assert result.pre_viterbi_bits.size == frame.coded_bits.size
        # At 28 dB on a mild channel, decoder-input BER is near zero.
        ber = np.mean(result.pre_viterbi_bits != frame.coded_bits)
        assert ber < 0.01

    def test_too_short_waveform(self):
        result = Receiver().receive(np.zeros(100, dtype=complex))
        assert not result.ok

    def test_unknown_timing_sync(self, payload, psdu, rng):
        frame = Transmitter().transmit(psdu, RATE_TABLE[12])
        offset_wave = np.concatenate(
            [np.zeros(57, dtype=complex), frame.waveform]
        )
        noisy = add_awgn(offset_wave, 1e-4, rng)
        result = Receiver(known_timing=False).receive(noisy)
        assert result.ok and result.mpdu.payload == payload

    def test_erasure_mask_shape_validated(self, psdu, clean_channel):
        frame = Transmitter().transmit(psdu, RATE_TABLE[24])
        obs = Receiver().observe(clean_channel.transmit(frame.waveform))
        with pytest.raises(ValueError):
            Receiver().decode(obs, erasure_mask=np.zeros((1, 48), dtype=bool))
