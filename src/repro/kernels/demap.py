"""Constellation demapping kernels over precomputed per-modulation tables.

The Gray-coded 802.11a constellations factor into independent I/Q PAM
axes, so both soft and hard demapping reduce to per-axis kernels.  The
tables they consume — PAM levels, label bits and per-bit label subsets —
are built once per :class:`~repro.phy.modulation.Modulation`.

``axis_llrs`` computes CSI-weighted max-log LLRs: for every bit, the
minimum squared distance over the labels whose bit is 1 minus that over
the labels whose bit is 0.  Each minimum is one gather of the distance
matrix through a ``(bits_per_axis, n_levels / 2)`` label-index table, so
all bits of an axis cost two gathers and two reductions.
``axis_hard_bits`` unpacks the nearest-level index through the label-bit
table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["axis_llrs", "axis_hard_bits", "build_label_bits", "build_bit_labels"]


def build_label_bits(n_levels: int, bits_per_axis: int) -> np.ndarray:
    """``(n_levels, bits_per_axis)`` uint8 — label index unpacked to bits.

    Bit 0 is the first transmitted bit of the axis (label MSB).
    """
    labels = np.arange(n_levels)
    shifts = np.arange(bits_per_axis - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def build_bit_labels(label_bits: np.ndarray, value: int) -> np.ndarray:
    """``(bits_per_axis, n_levels / 2)`` — per bit, the labels where it is ``value``.

    ``label_bits`` is the output of :func:`build_label_bits`; every bit of
    a PAM label is ``value`` for exactly half the labels.
    """
    n_levels, bits_per_axis = label_bits.shape
    _, labels = np.nonzero(label_bits.T == value)
    return labels.reshape(bits_per_axis, n_levels // 2)


def axis_llrs(
    observed: np.ndarray,
    csi: np.ndarray,
    levels: np.ndarray,
    bit0_labels: np.ndarray,
    bit1_labels: np.ndarray,
) -> np.ndarray:
    """Max-log LLRs for one PAM axis; shape ``(n_symbols, bits_per_axis)``.

    ``levels`` is the axis PAM alphabet indexed by label, ``bit0_labels``
    and ``bit1_labels`` the :func:`build_bit_labels` tables for it.
    """
    d2 = (observed[:, None] - levels[None, :]) ** 2  # (n, L)
    d0 = d2[:, bit0_labels].min(axis=2)  # (n, bits_per_axis)
    d1 = d2[:, bit1_labels].min(axis=2)
    return (d1 - d0) * csi[:, None]


def axis_hard_bits(
    observed: np.ndarray, levels: np.ndarray, label_bits: np.ndarray
) -> np.ndarray:
    """Nearest-level hard decisions as ``(n_symbols, bits_per_axis)`` uint8."""
    idx = np.abs(observed[:, None] - levels[None, :]).argmin(axis=1)
    return label_bits[idx]
