"""NumPy Viterbi kernel: blocked add-compare-select, single and batched.

The functions decode rate-1/2 LLR streams (``A0 B0 A1 B1 …``, positive
favours 0, zero = erasure) into ``n_steps = len(llrs) // 2`` information
bits, with the semantics of the scalar oracle
(:func:`repro.kernels.oracle.viterbi_decode_oracle`):

* :func:`decode_blocked_batch` — fuses ``block`` steps per iteration for a
  whole ``(B, 2n)`` batch of equal-length codewords at once.  Branch
  metrics are built by left-folding the per-step pair metrics into a
  ``4^block`` sums table and gathering it through the precomputed combo
  index (:mod:`repro.kernels.tables`); the Python-level ACS loop then
  runs ``n_steps / block`` times over ``(B, 64, 2^block)`` candidates and
  a vectorized traceback emits ``block`` bits per iteration for all rows.
* :func:`decode_blocked` — the single-codeword entry point, literally the
  batch kernel applied to one row.

Because every array operation in the batch kernel is elementwise, a
gather, or a per-row reduction, the result for row ``i`` of a batch is
**bit-for-bit identical** to decoding that row alone — for *any* float
input, not just exact-arithmetic ones.  (The previous implementation
computed branch metrics with a BLAS matmul, whose summation order — and
therefore last-ulp rounding — differs between gemv and gemm and between
batch shapes; the fixed-order pair-metric accumulation removes that
dependency at equal flop count, since ``2k ≤ 16``.)

Tie handling is identical to the oracle by construction: ``argmax``
picks the first (lowest-``j``) maximiser, and ``j``'s bit order makes
that the same path the per-step rule keeps.  On exact-arithmetic inputs
(integer LLRs, hard decisions, erasures) the blocked decoder and the
oracle are bit-for-bit interchangeable, ties included; on generic floats
they agree wherever no exact metric tie or rounding-order coincidence
occurs (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.tables import PAIR_SIGN_A, PAIR_SIGN_B, block_tables
from repro.phy.trellis import N_STATES

__all__ = [
    "decode_blocked",
    "decode_blocked_batch",
    "DEFAULT_BLOCK",
    "NEG_INF",
]

NEG_INF = -1e18

#: Default steps fused per super-step.  Joint sweet spot for the single
#: and batched paths on CPython+NumPy: at ``B = 1`` the interpreted loop
#: count still halves, while at large ``B`` the ``(B, 64·2^k)`` candidate
#: buffers stay cache-resident (k = 4 is ~5% faster single but ~2.5×
#: slower at batch 64; see docs/performance.md).
DEFAULT_BLOCK = 2

#: Re-centre path metrics about their max this often (in trellis steps).
#: Purely a float-range guard — metrics grow ~|LLR|·steps and float64 has
#: headroom for any realistic packet, so the cadence is uncritical.
NORM_INTERVAL = 256

#: Upper bound on the branch-metric scratch buffer, in float64 elements
#: (``B × chunk × 64·2^k``).  Chunking the per-super-step metrics keeps the
#: working set cache-friendly for large batches without changing results
#: (the accumulation order per element is independent of the chunking).
#: 2^15 ≈ a 256 KiB buffer: measured 25–45% faster at batch 64 than
#: megabyte-scale chunks, with no effect on the B = 1 path.
_BM_CHUNK_ELEMS = 1 << 15


def _segment_plan(n_steps: int, block: int):
    """Split ``n_steps`` into a run of ``block``-sized super-steps plus a
    remainder segment (handled by the ``k = remainder`` tables)."""
    n_blocks, rem = divmod(n_steps, block)
    plan = []
    if n_blocks:
        plan.append((block, n_blocks))
    if rem:
        plan.append((rem, 1))
    return plan


def decode_blocked_batch(
    llrs2d: np.ndarray, terminated: bool = True, block: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Blocked ACS Viterbi decode of a ``(B, 2n)`` equal-length batch.

    Returns ``(B, n)`` uint8 information bits.  Row ``i`` is bit-for-bit
    identical to ``decode_blocked(llrs2d[i])`` — the single path *is* this
    kernel at ``B = 1``.
    """
    llrs2d = np.atleast_2d(np.asarray(llrs2d, dtype=np.float64))
    if llrs2d.ndim != 2:
        raise ValueError("batch must be a (B, 2 * n_steps) array")
    if llrs2d.shape[1] % 2 != 0:
        raise ValueError("LLR stream must contain whole (A, B) pairs")
    n_rows = llrs2d.shape[0]
    n_steps = llrs2d.shape[1] // 2
    if n_steps == 0 or n_rows == 0:
        return np.zeros((n_rows, n_steps), dtype=np.uint8)

    # Per-step pair metrics, shared by every segment: pm[b, t, p] is the
    # metric of pair hypothesis p = 2*A + B at trellis step t of row b.
    llr_a = llrs2d[:, 0::2]
    llr_b = llrs2d[:, 1::2]
    pair_metrics = llr_a[:, :, None] * PAIR_SIGN_A + llr_b[:, :, None] * PAIR_SIGN_B

    metric = np.full((n_rows, N_STATES), NEG_INF)
    metric[:, 0] = 0.0
    rows = np.arange(n_rows)
    segments = []  # (tables, decisions, start_step)
    pos = 0
    for k, n_blocks in _segment_plan(n_steps, block):
        tables = block_tables(k)
        combo_index = tables.combo_index
        prev_flat = tables.prev_state.reshape(-1)
        n_branches = 1 << k
        n_flat = N_STATES * n_branches
        pm_seg = pair_metrics[:, pos : pos + k * n_blocks].reshape(
            n_rows, n_blocks, k, 4
        )
        decisions = np.empty((n_blocks, n_rows, N_STATES), dtype=np.uint8)
        norm_every = max(1, NORM_INTERVAL // k)
        chunk = max(1, _BM_CHUNK_ELEMS // (n_rows * n_flat))
        for t0 in range(0, n_blocks, chunk):
            t1 = min(t0 + chunk, n_blocks)
            # Branch metrics for super-steps t0..t1: left-fold the k
            # per-step pair metrics into a 4^k sums table, then gather
            # through the precomputed combo index.  Every op is
            # elementwise per (row, t, combo) in a fixed fold order, so
            # the result is independent of both the batch size and the
            # chunking — and the fold touches ~6× fewer elements than
            # gathering the full (·, 64·2^k) buffer once per step.
            sums = pm_seg[:, t0:t1, 0, :]
            for i in range(1, k):
                sums = (
                    sums[:, :, :, None] + pm_seg[:, t0:t1, i, None, :]
                ).reshape(n_rows, t1 - t0, -1)
            bm = sums[:, :, combo_index]
            for t in range(t0, t1):
                cand = (metric[:, prev_flat] + bm[:, t - t0]).reshape(
                    n_rows, N_STATES, n_branches
                )
                j = cand.argmax(axis=2)
                decisions[t] = j
                metric = cand[rows[:, None], np.arange(N_STATES)[None, :], j]
                if t % norm_every == norm_every - 1:
                    metric = metric - metric.max(axis=1, keepdims=True)
        segments.append((tables, decisions, pos))
        pos += k * n_blocks

    if terminated:
        state = np.zeros(n_rows, dtype=np.intp)
    else:
        state = metric.argmax(axis=1)
    bits = np.empty((n_rows, n_steps), dtype=np.uint8)
    for tables, decisions, start in reversed(segments):
        k = tables.k
        prev_k, bits_k = tables.prev_state, tables.info_bits
        for t in range(decisions.shape[0] - 1, -1, -1):
            j = decisions[t, rows, state]
            bits[:, start + t * k : start + (t + 1) * k] = bits_k[state, j]
            state = prev_k[state, j]
    return bits


def decode_blocked(
    llrs: np.ndarray, terminated: bool = True, block: int = DEFAULT_BLOCK
) -> np.ndarray:
    """Blocked add-compare-select Viterbi decode of one codeword.

    A thin wrapper over :func:`decode_blocked_batch` with ``B = 1`` — the
    single and batched paths share every arithmetic operation, which is
    what guarantees ``receive_many`` equals looped ``receive`` bitwise.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 1:
        raise ValueError("expected a flat LLR stream")
    return decode_blocked_batch(llrs[None, :], terminated, block)[0]
