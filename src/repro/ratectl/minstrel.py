"""Minstrel-style sampling rate control (the mac80211 default).

Per flow, Minstrel keeps an EWMA success probability per rate, fed by
frame fates alone — no receiver feedback, no control traffic.  ~10% of
head-of-queue transmissions *sample* a uniformly random rate to keep the
statistics of unused rates alive; the rest transmit at the
estimated-throughput maximiser.  Retries walk the classic chain: best
throughput → second-best throughput → highest success probability →
base rate, so a frame stuck behind a bad estimate degrades gracefully
instead of burning its whole retry budget at one rate.

Sampling draws come from the controller's ``rng`` (one ``random()``
draw per non-retry selection, one ``integers()`` draw when it samples),
so the sampling schedule is reproducible per trial seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.ratectl.base import RateController, register

__all__ = ["MinstrelController"]


@register
class MinstrelController(RateController):
    """EWMA success tracking + random sampling + max-tp/max-prob chain."""

    name = "minstrel"
    transport = None
    uses_feedback = False

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 rates: Optional[Tuple[int, ...]] = None,
                 sample_prob: float = 0.1,
                 ewma_weight: float = 0.25) -> None:
        super().__init__(rng=rng, rates=rates)
        if not 0.0 <= sample_prob <= 1.0:
            raise ValueError("sample_prob must be in [0, 1]")
        if not 0.0 < ewma_weight <= 1.0:
            raise ValueError("ewma_weight must be in (0, 1]")
        self.sample_prob = sample_prob
        self.ewma_weight = ewma_weight
        # flow -> {rate: EWMA success probability (None = never tried)}.
        self._flows: Dict[Tuple[str, str], Dict[int, Optional[float]]] = {}

    # -- state ----------------------------------------------------------

    def _flow(self, src: str, dst: str) -> Dict[int, Optional[float]]:
        return self._flows.setdefault(
            (src, dst), {rate: None for rate in self.rates}
        )

    def _ranked(self, stats: Dict[int, Optional[float]]):
        """Tried rates by estimated throughput, ties to the *lower* rate."""
        seen = [(stats[r] * r, -r) for r in self.rates if stats[r] is not None]
        seen.sort(reverse=True)
        return [-r for _, r in seen]

    def _max_prob(self, stats: Dict[int, Optional[float]]) -> int:
        """The most reliable tried rate (ties to the lower rate)."""
        best, best_p = self.rates[0], -1.0
        for rate in self.rates:
            p = stats[rate]
            if p is not None and p > best_p:
                best, best_p = rate, p
        return best

    # -- protocol -------------------------------------------------------

    def select_rate(self, src: str, dst: str, retries: int = 0) -> int:
        stats = self._flow(src, dst)
        if retries == 0:
            if self.rng is not None and \
                    float(self.rng.random()) < self.sample_prob:
                return int(self.rates[int(self.rng.integers(len(self.rates)))])
            ranked = self._ranked(stats)
            return ranked[0] if ranked else self.rates[0]
        ranked = self._ranked(stats)
        if retries == 1 and len(ranked) > 1:
            return ranked[1]
        if retries <= 3:
            return self._max_prob(stats)
        return self.rates[0]

    def on_tx_result(self, src: str, dst: str, rate_mbps: int, ok: bool,
                     retries: int, payload_octets: int = 0) -> None:
        stats = self._flow(src, dst)
        if rate_mbps not in stats:
            return
        outcome = 1.0 if ok else 0.0
        prev = stats[rate_mbps]
        if prev is None:
            stats[rate_mbps] = outcome
        else:
            w = self.ewma_weight
            stats[rate_mbps] = (1.0 - w) * prev + w * outcome

    # -- introspection (tests, debugging) -------------------------------

    def success_prob(self, src: str, dst: str, rate_mbps: int) -> Optional[float]:
        """Current EWMA success estimate of one rate (None = untried)."""
        return self._flow(src, dst).get(rate_mbps)

    def best_rate(self, src: str, dst: str) -> int:
        """The non-sampling choice (what ``select_rate`` returns sans dice)."""
        ranked = self._ranked(self._flow(src, dst))
        return ranked[0] if ranked else self.rates[0]
