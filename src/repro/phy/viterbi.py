"""Soft-decision Viterbi decoder with native erasure support.

The decoder consumes one *log-likelihood ratio* per coded bit,

    LLR(c) = log P(c = 0 | y) - log P(c = 1 | y),

so a positive LLR favours a 0.  An **erasure** is simply ``LLR = 0`` — it
contributes nothing to any path metric, exactly the bit-metric zeroing of
the paper's erasure Viterbi decoding (eq. (7)).  Punctured positions and
CoS silence symbols both enter the decoder this way, which is why EVD
"does not modify the existing Viterbi decoder, but only the calculation
of bit metrics" (§III-E).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.kernels import dispatch as _kernels
from repro.obs.trace import span
from repro.phy.trellis import shared_trellis

__all__ = ["ViterbiDecoder", "hard_bits_to_llrs"]


def hard_bits_to_llrs(bits: np.ndarray, confidence: float = 1.0) -> np.ndarray:
    """Map hard bits to LLRs (+confidence for 0, -confidence for 1)."""
    bits = np.asarray(bits, dtype=np.float64)
    return confidence * (1.0 - 2.0 * bits)


class ViterbiDecoder:
    """Maximum-likelihood sequence decoder for the 802.11a trellis.

    Parameters
    ----------
    terminated:
        If True (the 802.11a case — 6 tail zeros flush the encoder) the
        survivor ending in state 0 is traced back; otherwise the best
        final state is used.

    The actual add-compare-select recursion is served by the active
    compute-kernel backend (:mod:`repro.kernels`): the on-demand C kernel
    when a compiler exists, else blocked NumPy, selectable via
    ``REPRO_KERNEL_BACKEND``.  Both backends share identical decode
    semantics (see the dispatch module's exactness contract).
    """

    def __init__(self, terminated: bool = True):
        self.terminated = terminated
        self._trellis = shared_trellis()

    def decode(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a rate-1/2 LLR stream (A0 B0 A1 B1 …) into info bits.

        ``llrs`` must have even length; length // 2 information bits are
        returned (including any tail bits, which callers strip).
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.size % 2 != 0:
            raise ValueError("LLR stream must contain whole (A, B) pairs")
        n_steps = llrs.size // 2
        if n_steps == 0:
            return np.zeros(0, dtype=np.uint8)
        backend = _kernels.get_backend()
        with span("phy.viterbi") as sp:
            sp.set(n_steps=n_steps, backend=backend.name)
            return backend.viterbi_decode(llrs, self.terminated)

    def decode_many(self, llrs_list: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Decode a batch of codewords in one call (mixed lengths allowed).

        Bit-for-bit identical to looping :meth:`decode`; the batch entry
        point amortizes dispatch overhead and lets the NumPy backend run
        whole equal-length groups through one batched recursion.

        A single-codeword batch is routed through :meth:`decode` so the
        ``phy.viterbi`` span (with its ``n_steps``/``backend`` attributes)
        keeps firing for unbatched packets — trace consumers rely on it.
        """
        if len(llrs_list) == 1:
            return [self.decode(llrs_list[0])]
        with span("phy.viterbi.batch") as sp:
            sp.set(n_codewords=len(llrs_list))
            return _kernels.decode_many(llrs_list, self.terminated)

    def decode_hard(self, coded_bits: np.ndarray) -> np.ndarray:
        """Convenience: hard-decision decoding of a rate-1/2 bit stream."""
        return self.decode(hard_bits_to_llrs(coded_bits))
