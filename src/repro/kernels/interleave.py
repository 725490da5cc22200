"""Composed deinterleave + depuncture as a single precomputed gather.

The receive bit pipeline undoes the transmitter's per-symbol interleaving
and re-inserts the punctured coded bits as erasures before Viterbi
decoding.  Both are pure index shuffles, so for a given 802.11a rate the
whole thing collapses into one scatter/gather pair per OFDM symbol:

    out[..., sym, scatter] = llrs[..., sym, gather]      (rest = fill)

where ``gather`` is the deinterleaver permutation over the ``n_cbps``
received metrics and ``scatter`` places them at the transmitted positions
of the full ``2 · n_dbps`` rate-1/2 stream.  The per-symbol composition is
exact because every 802.11a rate's ``n_dbps`` is a whole number of
puncture periods (24/48/96 at rate 1/2, 192 at 2/3, 36/72/144/216 at
3/4), so the stream-tiled puncture mask always aligns to symbol
boundaries.

:func:`deinterleave_rx_numpy` applies them as one fancy-indexed
assignment over the whole ``(..., n_symbols, n_cbps)`` batch; exact by
construction (pure element moves, no arithmetic).  Both kernel backends
share it — callers go through :func:`repro.kernels.dispatch.deinterleave_rx`
— and the equivalence tests check it against the per-symbol loop of
:func:`repro.kernels.oracle.deinterleave_rx_oracle`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["RxGatherTables", "rx_gather_tables", "deinterleave_rx_numpy"]


class RxGatherTables(NamedTuple):
    """Per-(rate) gather/scatter tables for one OFDM symbol.

    Attributes
    ----------
    gather:
        ``(n_cbps,)`` intp — deinterleaver permutation: received metric
        ``gather[i]`` is the ``i``-th transmitted coded bit of the symbol.
    scatter:
        ``(n_cbps,)`` intp — position of transmitted coded bit ``i`` in
        the full rate-1/2 stream of the symbol (length ``n_out``).
    n_cbps:
        Coded bits per symbol (input block size).
    n_out:
        ``2 · n_dbps`` — full rate-1/2 coded bits per symbol (output
        block size; positions not in ``scatter`` are erasures).
    """

    gather: np.ndarray
    scatter: np.ndarray
    n_cbps: int
    n_out: int


@lru_cache(maxsize=None)
def rx_gather_tables(n_cbps: int, n_bpsc: int, code_rate: Fraction) -> RxGatherTables:
    """Build (and cache) the composed RX gather tables for one rate."""
    from repro.phy.convcode import PUNCTURE_PATTERNS
    from repro.phy.interleaver import _permutations

    gather, _ = _permutations(n_cbps, n_bpsc)
    pattern = PUNCTURE_PATTERNS[code_rate]
    kept_per_period = int(pattern.sum())
    if n_cbps % kept_per_period != 0:
        raise ValueError(
            f"n_cbps={n_cbps} is not a whole number of puncture periods "
            f"for rate {code_rate}"
        )
    n_pairs = (n_cbps // kept_per_period) * pattern.shape[0]
    mask = np.tile(pattern, (n_pairs // pattern.shape[0], 1)).reshape(-1)
    scatter = np.flatnonzero(mask).astype(np.intp)
    assert scatter.size == n_cbps
    return RxGatherTables(
        gather=np.ascontiguousarray(gather, dtype=np.intp),
        scatter=scatter,
        n_cbps=n_cbps,
        n_out=2 * n_pairs,
    )


def _blocks(values: np.ndarray, n_cbps: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] % n_cbps != 0:
        raise ValueError(
            f"last axis of {values.shape} is not a whole number of "
            f"{n_cbps}-bit interleaver blocks"
        )
    return values.reshape(values.shape[:-1] + (-1, n_cbps))


def deinterleave_rx_numpy(
    values: np.ndarray,
    n_cbps: int,
    n_bpsc: int,
    code_rate: Fraction,
    fill: float = 0.0,
) -> np.ndarray:
    """Deinterleave + depuncture ``(..., n_symbols * n_cbps)`` metrics.

    Returns ``(..., n_symbols * n_out)`` float64 with ``fill`` at every
    punctured position.  Works on any leading batch shape; each trailing
    block is handled independently, so batched output rows are identical
    to per-row calls.
    """
    tables = rx_gather_tables(n_cbps, n_bpsc, code_rate)
    blocks = _blocks(values, n_cbps)
    out = np.full(blocks.shape[:-1] + (tables.n_out,), fill, dtype=np.float64)
    out[..., tables.scatter] = blocks[..., tables.gather]
    return out.reshape(blocks.shape[:-2] + (-1,))


def warmup_rx_gather() -> None:
    """Pre-build the gather tables for every 802.11a rate."""
    from repro.phy.params import RATE_TABLE

    for rate in RATE_TABLE.values():
        rx_gather_tables(rate.n_cbps, rate.n_bpsc, rate.code_rate)
