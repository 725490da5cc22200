"""SampleRate (Bicket) — average-transmission-time minimisation.

Per flow and rate, track the total airtime spent and the packets
delivered; transmit at the rate whose *average time per successful
packet* is lowest.  Every ``sample_every``-th head-of-queue transmission
probes one other candidate rate (deterministic round-robin — SampleRate
samples on a schedule, unlike Minstrel's dice), skipping rates that have
failed ``max_consec_fail`` times in a row since their last success —
Bicket's rule for not wasting airtime on dead rates.

Like Minstrel this is loss-driven: no feedback messages, no control
airtime; the frame fates reported by the MAC are the whole signal.  The
round-robin sampling schedule draws nothing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.mac.dcf import frame_airtime_us
from repro.phy.params import RATE_TABLE
from repro.ratectl.base import RateController, register

__all__ = ["SampleRateController"]


class _RateStats:
    """Per-(flow, rate) bookkeeping."""

    __slots__ = ("attempts", "successes", "total_tx_us", "consec_fail")

    def __init__(self) -> None:
        self.attempts = 0
        self.successes = 0
        self.total_tx_us = 0.0
        self.consec_fail = 0

    def avg_tx_us(self) -> float:
        if self.successes == 0:
            return float("inf")
        return self.total_tx_us / self.successes


class _FlowState:
    __slots__ = ("stats", "n_tx", "sample_idx")

    def __init__(self, rates: Tuple[int, ...]) -> None:
        self.stats: Dict[int, _RateStats] = {r: _RateStats() for r in rates}
        self.n_tx = 0
        self.sample_idx = 0


@register
class SampleRateController(RateController):
    """Minimise average tx time per delivered packet; sample periodically."""

    name = "samplerate"
    transport = None
    uses_feedback = False

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 rates: Optional[Tuple[int, ...]] = None,
                 sample_every: int = 10,
                 max_consec_fail: int = 4) -> None:
        super().__init__(rng=rng, rates=rates)
        if sample_every < 2:
            raise ValueError("sample_every must be at least 2")
        if max_consec_fail < 1:
            raise ValueError("max_consec_fail must be at least 1")
        self.sample_every = sample_every
        self.max_consec_fail = max_consec_fail
        self._flows: Dict[Tuple[str, str], _FlowState] = {}

    def _flow(self, src: str, dst: str) -> _FlowState:
        return self._flows.setdefault((src, dst), _FlowState(self.rates))

    def _best(self, flow: _FlowState) -> int:
        """Lowest average-tx-time rate with at least one success."""
        best, best_key = None, None
        for rate in self.rates:
            st = flow.stats[rate]
            if st.successes == 0:
                continue
            key = (st.avg_tx_us(), -rate)
            if best_key is None or key < best_key:
                best, best_key = rate, key
        return best if best is not None else self.rates[0]

    # -- protocol -------------------------------------------------------

    def select_rate(self, src: str, dst: str, retries: int = 0) -> int:
        flow = self._flow(src, dst)
        if retries >= 2:
            return self.rates[0]
        best = self._best(flow)
        if retries == 1:
            return best
        flow.n_tx += 1
        if flow.n_tx % self.sample_every == 0:
            candidates = [
                r for r in self.rates
                if r != best
                and flow.stats[r].consec_fail < self.max_consec_fail
            ]
            if candidates:
                rate = candidates[flow.sample_idx % len(candidates)]
                flow.sample_idx += 1
                return rate
        return best

    def on_tx_result(self, src: str, dst: str, rate_mbps: int, ok: bool,
                     retries: int, payload_octets: int = 0) -> None:
        flow = self._flow(src, dst)
        st = flow.stats.get(rate_mbps)
        if st is None:
            return
        st.attempts += 1
        st.total_tx_us += frame_airtime_us(payload_octets, RATE_TABLE[rate_mbps])
        if ok:
            st.successes += 1
            st.consec_fail = 0
        else:
            st.consec_fail += 1

    # -- introspection (tests, debugging) -------------------------------

    def avg_tx_us(self, src: str, dst: str, rate_mbps: int) -> float:
        return self._flow(src, dst).stats[rate_mbps].avg_tx_us()

    def best_rate(self, src: str, dst: str) -> int:
        return self._best(self._flow(src, dst))
