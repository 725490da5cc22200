"""Property-based tests for the DCF MAC and the control stream."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cos.stream import ReliableControlReceiver, ReliableControlSender
from repro.net import run_scenario
from repro.net.scenarios import contention


def _ring(spec, seed):
    """One contention ring, station ``i`` offering ``spec[i]`` frames."""
    base = contention(n_stations=len(spec), n_packets=1)
    flows = tuple(dataclasses.replace(flow, n_packets=n)
                  for flow, n in zip(base.flows, spec))
    return run_scenario(dataclasses.replace(base, flows=flows), rng=seed)


class TestDcfProperties:
    @given(
        st.lists(st.integers(1, 10), min_size=1, max_size=5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_delivered_never_exceeds_offered(self, spec, seed):
        result = _ring(spec, seed)
        for i, offered in enumerate(spec):
            stats = result.per_node[f"sta{i}"]
            assert stats.data_delivered + stats.data_dropped <= offered

    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_station_never_collides(self, n_frames, seed):
        stats = _ring([n_frames], seed).per_node["sta0"]
        assert stats.failures == 0
        assert stats.data_delivered == n_frames


class TestStreamProperties:
    @given(st.binary(min_size=1, max_size=64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transfer_over_random_loss(self, data, seed):
        """Any payload survives any i.i.d. loss pattern below 60 %."""
        rng = np.random.default_rng(seed)
        sender = ReliableControlSender(data)
        receiver = ReliableControlReceiver()
        for _ in range(3000):
            if sender.done:
                break
            payload = sender.next_payload()
            if rng.random() < 0.6:
                continue
            sender.on_ack(receiver.on_payload(payload))
        assert sender.done
        assert receiver.data(len(data)) == data

    @given(st.binary(min_size=1, max_size=32), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_corruption_never_corrupts_output(self, data, seed):
        """Bit-flipped frames are rejected by the checksum, so the
        assembled prefix always matches the source."""
        rng = np.random.default_rng(seed)
        sender = ReliableControlSender(data)
        receiver = ReliableControlReceiver()
        for _ in range(2000):
            if sender.done:
                break
            payload = sender.next_payload().copy()
            if rng.random() < 0.3:
                payload[rng.integers(0, payload.size)] ^= 1
            sender.on_ack(receiver.on_payload(payload))
        got = receiver.data(len(data))
        assert data.startswith(got) or got == data
