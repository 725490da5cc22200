"""Bitmap silence coding — the strawman interval coding beats.

The obvious way to signal bits with silences is a *bitmap*: one control
cell per bit, silence = 1, active = 0.  The paper instead encodes k bits
in the gap between silences.  This module implements the bitmap codec so
the trade-off can be measured (the ``ablations`` stage's coding study,
:func:`repro.experiments.ablations.run_coding`):

* **silence cost** — bitmap spends E[bits]/2 silences per bit (every
  1-bit is a silence); interval coding spends 1/k silences per bit —
  8× fewer at k = 4 for uniform bits.  Silences consume the channel
  code's correction budget, so this is the capacity-relevant cost.
* **stream cost** — bitmap needs exactly 1 cell/bit; interval coding
  needs (E[v]+1)/k ≈ 2.1 cells/bit.  Cells are cheap (any data symbol on
  a control subcarrier); the code budget is not.
* **error behaviour** — a single detection error flips one bitmap bit
  but desynchronises *all* interval groups after it.  Bitmap degrades
  gracefully; intervals fail loudly (and detectably).

The planner mirrors :class:`repro.cos.silence.SilencePlanner`'s API so
the two schemes are drop-in interchangeable in experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cos.silence import DEFAULT_CONTROL_SUBCARRIERS, SilencePlan
from repro.phy.params import N_DATA_SUBCARRIERS

__all__ = ["BitmapPlanner"]


class BitmapPlanner:
    """Silence-bitmap planner: control cell i carries control bit i."""

    def __init__(self, control_subcarriers: Sequence[int] = DEFAULT_CONTROL_SUBCARRIERS):
        subcarriers = [int(c) for c in control_subcarriers]
        if not subcarriers:
            raise ValueError("need at least one control subcarrier")
        if len(set(subcarriers)) != len(subcarriers):
            raise ValueError("control subcarriers must be distinct")
        if any(not 0 <= c < N_DATA_SUBCARRIERS for c in subcarriers):
            raise ValueError("control subcarrier indices must be in 0..47")
        self.control_subcarriers = sorted(subcarriers)

    @property
    def n_control(self) -> int:
        return len(self.control_subcarriers)

    def stream_length(self, n_symbols: int) -> int:
        return n_symbols * self.n_control

    def capacity_bits(self, n_symbols: int) -> int:
        """One bit per control cell."""
        return self.stream_length(n_symbols)

    def plan(self, control_bits: Sequence[int], n_symbols: int) -> SilencePlan:
        """Embed a prefix of ``control_bits``, one bit per cell."""
        bits = np.asarray(control_bits, dtype=np.uint8)
        usable = min(bits.size, self.stream_length(n_symbols))
        bits = bits[:usable]
        mask = np.zeros((n_symbols, N_DATA_SUBCARRIERS), dtype=bool)
        for position in np.nonzero(bits)[0]:
            slot = int(position) // self.n_control
            subcarrier = self.control_subcarriers[int(position) % self.n_control]
            mask[slot, subcarrier] = True
        return SilencePlan(
            mask=mask, embedded_bits=bits, n_silences=int(bits.sum())
        )

    def recover_bits(self, mask: np.ndarray, n_bits: Optional[int] = None) -> np.ndarray:
        """Read the bitmap back from a (detected) silence mask.

        Unlike interval decoding the receiver must know ``n_bits`` (or it
        reads the whole stream) — bitmap coding has no built-in framing,
        one more reason the paper's scheme wins.
        """
        mask = np.asarray(mask, dtype=bool)
        bits = []
        for slot in range(mask.shape[0]):
            for subcarrier in self.control_subcarriers:
                bits.append(int(mask[slot, subcarrier]))
        out = np.asarray(bits, dtype=np.uint8)
        return out if n_bits is None else out[:n_bits]

    def silences_for(self, bits: Sequence[int]) -> int:
        """Silence symbols spent on this particular message."""
        return int(np.asarray(bits, dtype=np.uint8).sum())
