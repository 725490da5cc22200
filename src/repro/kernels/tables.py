"""Precomputed trellis tables for the blocked Viterbi kernels.

The 802.11a trellis has 64 states and 2 branches per state.  The blocked
kernel fuses ``k`` consecutive steps into one *super-step* over the same 64
states with ``2^k`` super-branches.  A super-branch into end-state ``s`` is
indexed by ``j`` whose bit ``i`` is the reverse-trellis branch label (the
LSB shifted out of the encoder window) taken at relative step ``i`` —
``j``'s MSB is therefore the *last* step's label, which makes ``argmax``'s
first-occurrence tie rule reproduce the per-step ACS tie rule exactly (the
later step's preference dominates, each preferring label 0).

Because each pair metric is ``±llr_A ± llr_B``, a super-branch metric is a
sum of ``k`` per-step pair metrics.  :func:`block_tables` encodes which
pair hypothesis each step contributes as a base-4 *combo index*; the
blocked kernel left-folds the per-step pair metrics into a ``4^k`` sums
table and gathers through it.  Accumulating in fixed step order is
batch-shape-invariant — unlike a BLAS matmul, whose summation order (and
therefore last-ulp rounding) can differ between a ``(1, 2k)`` and a
``(64·n, 2k)`` left operand — which is what makes the batched decoder
bit-for-bit equal to the single-codeword path on *all* float inputs, not
just exact ones.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.phy.trellis import N_STATES, shared_trellis

__all__ = ["BlockTables", "block_tables", "PAIR_SIGN_A", "PAIR_SIGN_B", "MAX_BLOCK"]

#: Metric of hypothesis pair p = 2*A + B: +LLR for an expected 0, -LLR for 1.
PAIR_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
PAIR_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])

#: Largest supported block size; 8 keeps the decision store in uint8.
MAX_BLOCK = 8


class BlockTables(NamedTuple):
    """Tables for a ``k``-step super-trellis.

    Attributes
    ----------
    k:
        Steps fused per super-step.
    prev_state:
        ``(64, 2^k)`` intp — state ``k`` steps before end-state ``s`` along
        super-branch ``j``.
    info_bits:
        ``(64, 2^k, k)`` uint8 — the information bits emitted along the
        super-branch, in forward step order.
    combo_index:
        ``(64·2^k,)`` intp — the base-4 digit string of a super-branch's
        pair hypotheses (``2*A + B``), earliest step in the highest digit:
        ``combo_index[s * 2^k + j] = Σ_i pair_i · 4^(k-1-i)`` where
        ``pair_i`` is the hypothesis taken at relative step ``i`` along
        super-branch ``j`` into state ``s``.
        The kernel left-folds the ``k`` per-step pair metrics into a
        ``4^k`` sums table (one fixed-order add tree, independent of the
        batch shape) and gathers branch metrics through this index —
        ~6× fewer element touches than gathering per step.
    """

    k: int
    prev_state: np.ndarray
    info_bits: np.ndarray
    combo_index: np.ndarray


@lru_cache(maxsize=None)
def block_tables(k: int) -> BlockTables:
    """Build (and cache) the ``k``-step super-trellis tables."""
    if not 1 <= k <= MAX_BLOCK:
        raise ValueError(f"block size must be in 1..{MAX_BLOCK}, got {k}")
    trellis = shared_trellis()
    n_branches = 1 << k
    prev_k = np.empty((N_STATES, n_branches), dtype=np.intp)
    bits_k = np.empty((N_STATES, n_branches, k), dtype=np.uint8)
    pair_index = np.empty((k, N_STATES * n_branches), dtype=np.intp)
    for s in range(N_STATES):
        for j in range(n_branches):
            state = s
            # Walk backward from the end state: bit i of j is the branch
            # label at relative step i, so step k-1 is peeled off first.
            for i in range(k - 1, -1, -1):
                x = (j >> i) & 1
                pair = int(trellis.branch_pair[state, x])
                pair_index[i, s * n_branches + j] = pair
                bits_k[s, j, i] = trellis.input_bit[state]
                state = int(trellis.prev_state[state, x])
            prev_k[s, j] = state
    combo_index = np.zeros(N_STATES * n_branches, dtype=np.intp)
    for i in range(k):
        combo_index = combo_index * 4 + pair_index[i]
    return BlockTables(k=k, prev_state=prev_k, info_bits=bits_k,
                       combo_index=combo_index)
