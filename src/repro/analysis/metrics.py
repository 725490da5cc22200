"""Error-rate metrics used across the experiments."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["bit_error_rate", "symbol_error_rate_per_subcarrier"]


def bit_error_rate(sent: np.ndarray, received: np.ndarray) -> float:
    """Fraction of differing bits between two equal-length bit arrays."""
    sent = np.asarray(sent, dtype=np.uint8)
    received = np.asarray(received, dtype=np.uint8)
    if sent.shape != received.shape:
        raise ValueError(f"shape mismatch: {sent.shape} vs {received.shape}")
    if sent.size == 0:
        return 0.0
    return float(np.mean(sent != received))


def symbol_error_rate_per_subcarrier(error_grids: Sequence[np.ndarray]) -> np.ndarray:
    """Average SER per data subcarrier over many packets (Fig. 6(b))."""
    if not error_grids:
        raise ValueError("need at least one error grid")
    stacked = np.concatenate([np.asarray(g, dtype=bool) for g in error_grids], axis=0)
    return stacked.mean(axis=0)
