"""Property-based tests for the DCF MAC of ``repro.net``."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

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
