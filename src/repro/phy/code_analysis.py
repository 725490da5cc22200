"""Analytical properties of the 802.11a convolutional code.

CoS's capacity argument is a budget argument: the code corrects up to
roughly d_free/2 hard errors (more with soft decisions) per constraint
span, and whatever fading does not consume is available for silences.
This module computes those analytical quantities exactly:

* :func:`free_distance` — minimum Hamming weight of any error event,
  honouring the puncturing pattern (10 / 6 / 5 for rates 1/2, 2/3, 3/4 —
  the classic values for K=7 g=(133,171));
* :func:`union_bound_ber` — the first-event union bound on post-decoding
  BER for hard-decision decoding over a BSC, a pessimistic but shape-true
  reference curve for the waterfall experiment;
* :func:`erasure_budget` — the guaranteed number of *erasures* a
  (punctured) code span can absorb (d_free − 1), the hard floor under
  Fig. 9's measured budgets.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from repro.phy.convcode import PUNCTURE_PATTERNS
from repro.phy.trellis import N_STATES, shared_trellis

__all__ = ["free_distance", "erasure_budget", "union_bound_ber"]


def _pair_weights(pair_idx: int, mask: Tuple[bool, bool]) -> int:
    """Hamming weight of the transmitted part of an output pair."""
    a = (pair_idx >> 1) & 1
    b = pair_idx & 1
    return a * mask[0] + b * mask[1]


def free_distance(code_rate: Fraction) -> int:
    """Free distance of the (punctured) K=7 code, by Dijkstra over the
    trellis product with the puncture-pattern phase.

    An error event leaves the all-zero state and re-merges with it; its
    weight counts only bits the puncturer actually transmits, minimised
    over the pattern phase at which the event starts.
    """
    pattern = PUNCTURE_PATTERNS[code_rate]
    period = pattern.shape[0]
    trellis = shared_trellis()

    best = np.full((N_STATES, period), np.inf)
    heap: List[Tuple[float, int, int]] = []

    # Seed: diverge from state 0 with input 1, at every pattern phase.
    for phase in range(period):
        mask = tuple(bool(x) for x in pattern[phase])
        ns = int(trellis.next_state[0, 1])
        w = _pair_weights(int(trellis.output_pair[0, 1]), mask)
        nxt = (phase + 1) % period
        if w < best[ns, nxt]:
            best[ns, nxt] = w
            heapq.heappush(heap, (float(w), ns, nxt))

    result = np.inf
    while heap:
        weight, state, phase = heapq.heappop(heap)
        if weight > best[state, phase]:
            continue
        if weight >= result:
            continue
        mask = tuple(bool(x) for x in pattern[phase])
        nxt = (phase + 1) % period
        for bit in (0, 1):
            ns = int(trellis.next_state[state, bit])
            w = weight + _pair_weights(int(trellis.output_pair[state, bit]), mask)
            if ns == 0:
                if bit == 0 and w < result:
                    result = w
                continue  # remerged (bit 1 into state 0 is impossible anyway)
            if w < best[ns, nxt]:
                best[ns, nxt] = w
                heapq.heappush(heap, (float(w), ns, nxt))
    return int(result)


def erasure_budget(code_rate: Fraction) -> int:
    """Guaranteed correctable erasures per error event span: d_free − 1."""
    return free_distance(code_rate) - 1


# First terms of the weight spectrum of the rate-1/2 K=7 (133,171) code:
# (distance d, total information-bit weight B_d), standard published values.
_SPECTRUM_HALF: Dict[int, int] = {10: 36, 12: 211, 14: 1404, 16: 11633}


def union_bound_ber(snr_per_bit_db: float, code_rate: Fraction = Fraction(1, 2)) -> float:
    """First-event union bound on hard-decision post-decoding BER (BSC).

    Only tabulated for the mother rate 1/2 (the punctured spectra are not
    tabulated here); used as the analytic reference in the waterfall
    experiment.  The channel is BPSK over AWGN with hard decisions:
    crossover p = Q(sqrt(2 R Eb/N0)).
    """
    if code_rate != Fraction(1, 2):
        raise ValueError("union bound tabulated for rate 1/2 only")
    from scipy import special

    ebn0 = 10.0 ** (snr_per_bit_db / 10.0)
    p = 0.5 * special.erfc(np.sqrt(float(code_rate) * ebn0))
    p = min(max(p, 1e-300), 0.5)
    total = 0.0
    for d, b_d in _SPECTRUM_HALF.items():
        # P2(d) for even d includes the tie term; use the standard form.
        ks = np.arange((d // 2) + 1, d + 1)
        p2 = np.sum(special.comb(d, ks) * p**ks * (1 - p) ** (d - ks))
        if d % 2 == 0:
            k = d // 2
            p2 += 0.5 * special.comb(d, k) * p**k * (1 - p) ** (d - k)
        total += b_d * p2
    return float(min(total, 0.5))
