"""802.11a constellation mapping and soft demapping.

The four modulations are square Gray-coded constellations whose I and Q
axes are independent PAM alphabets (clause 18.3.5.8, Tables 18-9..18-12).
Bits are consumed in transmission order: the first half of a symbol's bits
select the I level, the second half the Q level.

Demapping produces per-bit max-log LLRs weighted by channel state
information (CSI), so bits on faded subcarriers carry proportionally weak
metrics — which is what lets the Viterbi decoder absorb both fading errors
and CoS erasures gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.kernels.demap import (
    axis_hard_bits,
    axis_llrs,
    build_bit_labels,
    build_label_bits,
)

__all__ = ["Modulation", "MODULATIONS", "get_modulation"]

# PAM level tables indexed by the integer formed from the axis bits with the
# *first transmitted bit as MSB* (Gray mapping of the standard).
_PAM_LEVELS: Dict[int, np.ndarray] = {
    1: np.array([-1.0, 1.0]),
    2: np.array([-3.0, -1.0, 3.0, 1.0]),
    3: np.array([-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0]),
}

_KMOD: Dict[str, float] = {
    "bpsk": 1.0,
    "qpsk": 1.0 / np.sqrt(2.0),
    "16qam": 1.0 / np.sqrt(10.0),
    "64qam": 1.0 / np.sqrt(42.0),
}


@dataclass(frozen=True)
class Modulation:
    """A Gray-coded square constellation.

    Attributes
    ----------
    name:
        ``"bpsk"``, ``"qpsk"``, ``"16qam"`` or ``"64qam"``.
    bits_per_symbol:
        Total coded bits per constellation symbol (1, 2, 4, 6).
    bits_per_axis:
        Bits consumed by each PAM axis (0 for the Q axis of BPSK).
    kmod:
        Normalisation so the constellation has unit average energy.
    """

    name: str
    bits_per_symbol: int
    bits_per_axis: int
    kmod: float

    # ------------------------------------------------------------------
    # Derived tables — computed once per modulation (the MODULATIONS
    # singletons), not on every property access / demap call.
    # ------------------------------------------------------------------

    @cached_property
    def pam_levels(self) -> np.ndarray:
        """Normalised PAM levels indexed by axis-bit integer (first bit MSB)."""
        levels = _PAM_LEVELS[self.bits_per_axis] * self.kmod
        levels.setflags(write=False)
        return levels

    @cached_property
    def constellation(self) -> np.ndarray:
        """All M constellation points, indexed by the full bit label."""
        levels = self.pam_levels
        if self.name == "bpsk":
            points = levels.astype(np.complex128)
        else:
            n = levels.size
            points = np.repeat(levels, n) + 1j * np.tile(levels, n)
        points.setflags(write=False)
        return points

    @cached_property
    def min_symbol_energy(self) -> float:
        """Energy of the weakest constellation point (average is 1.0).

        Sets how far below the per-subcarrier signal level an energy
        -detection threshold must stay: 1.0 for BPSK/QPSK, 0.2 for 16-QAM,
        2/42 ≈ 0.048 for 64-QAM.
        """
        return float(np.min(np.abs(self.constellation) ** 2))

    @cached_property
    def min_distance(self) -> float:
        """Minimum Euclidean distance Dm between constellation points.

        CoS compares per-subcarrier EVM against Dm / 2 to predict whether a
        subcarrier will produce symbol errors (§III-D).
        """
        levels = np.sort(self.pam_levels)
        if levels.size == 1:
            return 2.0 * abs(levels[0])
        return float(np.min(np.diff(levels)))

    @cached_property
    def _label_bits(self) -> np.ndarray:
        """``(n_levels, bits_per_axis)`` uint8 — labels unpacked to bits."""
        bits = build_label_bits(self.pam_levels.size, self.bits_per_axis)
        bits.setflags(write=False)
        return bits

    @cached_property
    def _bit0_labels(self) -> np.ndarray:
        """``(bits_per_axis, n_levels / 2)`` — per bit, the labels where it is 0."""
        labels = build_bit_labels(self._label_bits, 0)
        labels.setflags(write=False)
        return labels

    @cached_property
    def _bit1_labels(self) -> np.ndarray:
        """``(bits_per_axis, n_levels / 2)`` — per bit, the labels where it is 1."""
        labels = build_bit_labels(self._label_bits, 1)
        labels.setflags(write=False)
        return labels

    def prewarm(self) -> None:
        """Materialise every cached table (used by kernel warm-up)."""
        _ = (
            self.pam_levels,
            self.constellation,
            self.min_symbol_energy,
            self.min_distance,
            self._label_bits,
            self._bit0_labels,
            self._bit1_labels,
        )

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def _axis_indices(self, bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        m = self.bits_per_axis
        grouped = bits.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(m - 1, -1, -1)
        i_idx = grouped[:, :m] @ weights
        if self.name == "bpsk":
            q_idx = np.zeros(grouped.shape[0], dtype=np.int64)
        else:
            q_idx = grouped[:, m:] @ weights
        return i_idx, q_idx

    def map_bits(self, bits: np.ndarray) -> np.ndarray:
        """Map a coded bit array (length multiple of bits_per_symbol) to symbols."""
        bits = np.asarray(bits, dtype=np.int64)
        if bits.size % self.bits_per_symbol != 0:
            raise ValueError(
                f"{bits.size} bits is not a multiple of {self.bits_per_symbol}"
            )
        levels = self.pam_levels
        i_idx, q_idx = self._axis_indices(bits)
        if self.name == "bpsk":
            return levels[i_idx].astype(np.complex128)
        return levels[i_idx] + 1j * levels[q_idx]

    # ------------------------------------------------------------------
    # Demapping
    # ------------------------------------------------------------------

    def _axis_llrs(self, observed: np.ndarray, csi: np.ndarray) -> np.ndarray:
        """Max-log LLRs for one PAM axis; shape (n_symbols, bits_per_axis).

        Delegates to the demap kernel over the precomputed level and
        per-bit label tables.
        """
        return axis_llrs(
            observed, csi, self.pam_levels, self._bit0_labels, self._bit1_labels
        )

    def demap_soft(self, symbols: np.ndarray, csi: np.ndarray | float = 1.0) -> np.ndarray:
        """Per-bit LLRs (positive ⇒ bit 0) for equalised ``symbols``.

        ``csi`` is the per-symbol reliability weight, canonically
        ``|H_k|^2 / sigma^2``; a scalar applies uniformly.  Symbols flagged
        as erasures should simply be skipped by the caller (CoS zeroes
        their metrics via ``Receiver.decode(erasure_mask=)``).
        """
        symbols = np.asarray(symbols, dtype=np.complex128)
        csi_arr = np.broadcast_to(np.asarray(csi, dtype=np.float64), symbols.shape)
        i_llrs = self._axis_llrs(symbols.real, csi_arr)
        if self.name == "bpsk":
            return i_llrs.reshape(-1)
        q_llrs = self._axis_llrs(symbols.imag, csi_arr)
        return np.concatenate([i_llrs, q_llrs], axis=1).reshape(-1)

    def demap_hard(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-point hard decisions, returned as a bit array."""
        symbols = np.asarray(symbols, dtype=np.complex128)
        i_bits = axis_hard_bits(symbols.real, self.pam_levels, self._label_bits)
        if self.name == "bpsk":
            return i_bits.reshape(-1)
        q_bits = axis_hard_bits(symbols.imag, self.pam_levels, self._label_bits)
        return np.concatenate([i_bits, q_bits], axis=1).reshape(-1)


MODULATIONS: Dict[str, Modulation] = {
    "bpsk": Modulation("bpsk", 1, 1, _KMOD["bpsk"]),
    "qpsk": Modulation("qpsk", 2, 1, _KMOD["qpsk"]),
    "16qam": Modulation("16qam", 4, 2, _KMOD["16qam"]),
    "64qam": Modulation("64qam", 6, 3, _KMOD["64qam"]),
}


def get_modulation(name: str) -> Modulation:
    """Look up a modulation by name, raising with the valid set."""
    try:
        return MODULATIONS[name]
    except KeyError:
        raise KeyError(f"unknown modulation {name!r}; valid: {sorted(MODULATIONS)}") from None
