"""Pure-Python scalar oracles for the kernel equivalence suite.

These are deliberately naive transcriptions of the algorithms — one
scalar operation per loop iteration, no NumPy vectorization — so they are
independent of both the blocked NumPy kernels and the C kernel.
:func:`viterbi_decode_oracle` is the one Viterbi semantics anchor: the
equivalence tests decode the same inputs through every backend *and*
this oracle and require identical bits.

Slow by design; only tests and the CI equivalence job should import this.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

import numpy as np

from repro.kernels.interleave import _blocks, rx_gather_tables
from repro.phy.trellis import N_STATES, shared_trellis

__all__ = [
    "viterbi_decode_oracle",
    "scramble_oracle",
    "demap_hard_oracle",
    "deinterleave_rx_oracle",
]

_NEG_INF = -1e18


def viterbi_decode_oracle(llrs: Sequence[float], terminated: bool = True) -> np.ndarray:
    """Scalar add-compare-select Viterbi with the canonical tie rule.

    Ties prefer branch label 0 at every step (later steps dominating by
    construction of the recursion) — the same rule every kernel backend
    implements.
    """
    llrs = [float(v) for v in llrs]
    if len(llrs) % 2 != 0:
        raise ValueError("LLR stream must contain whole (A, B) pairs")
    n_steps = len(llrs) // 2
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    trellis = shared_trellis()
    prev_state = trellis.prev_state
    branch_pair = trellis.branch_pair
    input_bit = trellis.input_bit
    sign_a = (1.0, 1.0, -1.0, -1.0)
    sign_b = (1.0, -1.0, 1.0, -1.0)

    metric: List[float] = [_NEG_INF] * N_STATES
    metric[0] = 0.0
    decisions: List[List[int]] = []
    for t in range(n_steps):
        la, lb = llrs[2 * t], llrs[2 * t + 1]
        pm = [la * sign_a[p] + lb * sign_b[p] for p in range(4)]
        new_metric = [0.0] * N_STATES
        row = [0] * N_STATES
        for s in range(N_STATES):
            c0 = metric[prev_state[s, 0]] + pm[branch_pair[s, 0]]
            c1 = metric[prev_state[s, 1]] + pm[branch_pair[s, 1]]
            if c1 > c0:
                row[s] = 1
                new_metric[s] = c1
            else:
                row[s] = 0
                new_metric[s] = c0
        peak = max(new_metric)
        metric = [m - peak for m in new_metric]
        decisions.append(row)

    if terminated:
        state = 0
    else:
        state = max(range(N_STATES), key=lambda s: (metric[s], -s))
    bits = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        bits[t] = input_bit[state]
        state = int(prev_state[state, decisions[t][state]])
    return bits


def scramble_oracle(bits: Sequence[int], state: int) -> np.ndarray:
    """Bit-at-a-time scramble through the raw LFSR recursion."""
    if not 0 < state < 128:
        raise ValueError("scrambler state must be a non-zero 7-bit value")
    out = np.empty(len(bits), dtype=np.uint8)
    for i, b in enumerate(bits):
        x7 = (state >> 6) & 1
        x4 = (state >> 3) & 1
        key = x7 ^ x4
        state = ((state << 1) & 0b1111111) | key
        out[i] = (int(b) ^ key) & 1
    return out


def demap_hard_oracle(
    symbols: Sequence[complex], levels: Sequence[float], has_q_axis: bool
) -> np.ndarray:
    """Scalar nearest-level decisions per axis, labels in MSB-first bits.

    ``has_q_axis`` is False only for BPSK, whose symbols carry just the I
    axis (QPSK shares the 2-level alphabet but modulates both axes).
    """
    levels = [float(v) for v in levels]
    m = max(1, (len(levels) - 1).bit_length())

    def axis(value: float) -> List[int]:
        best = min(range(len(levels)), key=lambda i: (abs(value - levels[i]), i))
        return [(best >> (m - 1 - bit)) & 1 for bit in range(m)]

    out: List[int] = []
    for z in symbols:
        z = complex(z)
        first = axis(z.real)
        out.extend(first)
        if has_q_axis:
            out.extend(axis(z.imag))
    return np.array(out, dtype=np.uint8)


def deinterleave_rx_oracle(
    values: np.ndarray,
    n_cbps: int,
    n_bpsc: int,
    code_rate: Fraction,
    fill: float = 0.0,
) -> np.ndarray:
    """Per-symbol scalar loops over the RX gather tables, no vectorization."""
    tables = rx_gather_tables(n_cbps, n_bpsc, code_rate)
    blocks = _blocks(values, n_cbps)
    lead = blocks.shape[:-2]
    flat = blocks.reshape(-1, blocks.shape[-2], n_cbps)
    out = np.full((flat.shape[0], flat.shape[1], tables.n_out), fill,
                  dtype=np.float64)
    for row in range(flat.shape[0]):
        for sym in range(flat.shape[1]):
            for i in range(n_cbps):
                out[row, sym, int(tables.scatter[i])] = flat[
                    row, sym, int(tables.gather[i])
                ]
    return out.reshape(lead + (-1,))
