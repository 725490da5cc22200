"""End-to-end scenario tests: the full stack under realistic conditions."""

import numpy as np
import pytest

from repro.channel import IndoorChannel, PulseInterferer
from repro.cos import AckMessage, CosLink, decode_message, encode_message
from repro.ratectl import RateAdapter


class TestMultiPacketSession:
    def test_sustained_session_all_bands(self):
        """A session in each rate band keeps PRR high and delivers control."""
        for snr, expected_rate in [(8.0, 12), (13.0, 24), (21.0, 48)]:
            channel = IndoorChannel.position("B", snr_db=snr, seed=9)
            link = CosLink(channel=channel)
            stats = link.run(n_packets=8, payload=b"d" * 300)
            assert stats.prr >= 0.85, f"PRR collapsed at {snr} dB"
            assert stats.outcomes[0].rate_mbps == expected_rate

    def test_typed_message_end_to_end(self):
        channel = IndoorChannel.position("A", snr_db=15.0, seed=5)
        link = CosLink(channel=channel)
        link.exchange(b"w" * 300, [])  # warm up feedback
        message = AckMessage(seq=1234)
        outcome = link.exchange(b"w" * 300, encode_message(message))
        assert outcome.data_ok
        assert outcome.control_ok
        assert decode_message(outcome.control_received) == message

    def test_mobility_session(self):
        """Walking-speed evolution across packets does not break the loop."""
        channel = IndoorChannel.position("A", snr_db=19.0, seed=2)
        link = CosLink(channel=channel, inter_packet_gap_s=5e-3)
        stats = link.run(n_packets=15, payload=b"m" * 200)
        assert stats.prr >= 0.8
        assert stats.message_accuracy >= 0.5


class TestAdverseConditions:
    def test_interference_degrades_control_not_crash(self):
        interferer = PulseInterferer(
            pulse_power=30.0, symbol_probability=0.3, rng=np.random.default_rng(0)
        )
        channel = IndoorChannel.position("A", snr_db=15.0, seed=5, interferer=interferer)
        link = CosLink(channel=channel)
        stats = link.run(n_packets=8, payload=b"i" * 200)
        # The loop survives; no exception, statistics well-formed.
        assert 0.0 <= stats.prr <= 1.0
        assert 0.0 <= stats.control_accuracy <= 1.0

    def test_very_low_snr_falls_back(self):
        channel = IndoorChannel.position("C", snr_db=2.5, seed=1)
        link = CosLink(channel=channel)
        outcome = link.exchange(b"x" * 100, [1, 0, 1, 0])
        assert outcome.rate_mbps == 6  # lowest rate selected

    def test_rate_tracks_snr_changes(self):
        """Selected rate follows the adapter as SNR shifts."""
        adapter = RateAdapter()
        for snr in (7.5, 10.0, 13.0, 18.0, 21.0, 23.0):
            channel = IndoorChannel.position("B", snr_db=snr, seed=3)
            link = CosLink(channel=channel)
            outcome = link.exchange(b"r" * 100, [])
            assert outcome.rate_mbps == adapter.select(snr).mbps


class TestBudgetInvariants:
    def test_silences_respect_allocation(self):
        channel = IndoorChannel.position("A", snr_db=15.0, seed=5)
        link = CosLink(channel=channel)
        for _ in range(5):
            outcome = link.exchange(b"b" * 400, np.ones(200, dtype=np.uint8))
            alloc = link.controller.allocation(outcome.measured_snr_db, 70)
            assert outcome.n_silences <= alloc.target_silences + 1

    def test_control_rate_lower_in_64qam_band(self):
        """The adaptive controller inserts fewer silences at 64QAM rates —
        the decreasing envelope of Fig. 9 as seen by the closed loop."""
        def silences_at(snr):
            channel = IndoorChannel.position("B", snr_db=snr, seed=4)
            link = CosLink(channel=channel)
            stats = link.run(n_packets=5, payload=b"c" * 400)
            return stats.total_silences / stats.n_packets

        assert silences_at(8.5) > silences_at(23.5)
