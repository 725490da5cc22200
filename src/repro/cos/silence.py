"""The power controller: planning silence-symbol positions in a packet.

The transmitter-side half of CoS modulation (§III-B).  Given the set of
control subcarriers fed back by the receiver and a queue of control bits,
the planner converts interval-coded positions into a boolean
``(n_symbols, 48)`` silence mask that the PHY transmitter zeroes before
its IFFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cos.intervals import IntervalCodec
from repro.phy.params import N_DATA_SUBCARRIERS

__all__ = ["SilencePlan", "SilencePlanner", "DEFAULT_CONTROL_SUBCARRIERS"]

# Before any EVM feedback arrives both ends fall back to a fixed agreed set
# (the paper's Fig. 10(a) demo uses eight contiguous data subcarriers).
DEFAULT_CONTROL_SUBCARRIERS: Tuple[int, ...] = tuple(range(9, 17))


@dataclass(frozen=True)
class SilencePlan:
    """A concrete placement of silence symbols for one packet.

    Attributes
    ----------
    mask:
        ``(n_symbols, 48)`` bool, True = transmit this data-subcarrier
        symbol at zero power.
    embedded_bits:
        The control bits actually carried (a prefix of what was offered if
        the packet was too short).
    n_silences:
        Total silence symbols inserted.
    """

    mask: np.ndarray
    embedded_bits: np.ndarray
    n_silences: int


class SilencePlanner:
    """Maps control bits onto the control-subcarrier symbol stream.

    Parameters
    ----------
    control_subcarriers:
        Logical data-subcarrier indices (0..47) carrying the control
        channel, as selected by the receiver's EVM feedback.
    codec:
        Interval codec (k = 4 in the paper).
    """

    def __init__(
        self,
        control_subcarriers: Sequence[int] = DEFAULT_CONTROL_SUBCARRIERS,
        codec: Optional[IntervalCodec] = None,
    ):
        subcarriers = [int(c) for c in control_subcarriers]
        if not subcarriers:
            raise ValueError("need at least one control subcarrier")
        if len(set(subcarriers)) != len(subcarriers):
            raise ValueError("control subcarriers must be distinct")
        if any(not 0 <= c < N_DATA_SUBCARRIERS for c in subcarriers):
            raise ValueError("control subcarrier indices must be in 0..47")
        self.control_subcarriers = sorted(subcarriers)
        self.codec = codec or IntervalCodec()

    # ------------------------------------------------------------------

    @property
    def n_control(self) -> int:
        return len(self.control_subcarriers)

    def stream_length(self, n_symbols: int) -> int:
        """Control-stream positions available in an ``n_symbols`` packet."""
        return n_symbols * self.n_control

    def capacity_bits(self, n_symbols: int, worst_case: bool = False) -> int:
        """Control bits one packet can carry.

        ``worst_case=True`` assumes every interval takes its maximum length
        (the guaranteed capacity); otherwise the expected capacity for
        uniform bits is returned.
        """
        stream = self.stream_length(n_symbols)
        k = self.codec.k
        if worst_case:
            per_interval = self.codec.max_interval + 1
        else:
            per_interval = self.codec.max_interval / 2.0 + 1.0
        n_intervals = max(0, int((stream - 1) // per_interval))
        return n_intervals * k

    # ------------------------------------------------------------------

    def _position_to_cell(self, position: int) -> Tuple[int, int]:
        slot = position // self.n_control
        subcarrier = self.control_subcarriers[position % self.n_control]
        return slot, subcarrier

    def plan(self, control_bits: Sequence[int], n_symbols: int) -> SilencePlan:
        """Place as many whole k-bit groups of ``control_bits`` as fit.

        The planner greedily embeds the longest prefix whose silence
        positions stay inside the packet's control stream; the caller keeps
        the unembedded suffix for the next packet.
        """
        bits = np.asarray(control_bits, dtype=np.uint8)
        k = self.codec.k
        usable = (bits.size // k) * k
        bits = bits[:usable]

        stream = self.stream_length(n_symbols)
        mask = np.zeros((n_symbols, N_DATA_SUBCARRIERS), dtype=bool)
        if stream < 1 or n_symbols == 0:
            return SilencePlan(mask=mask, embedded_bits=bits[:0], n_silences=0)

        positions: List[int] = [0]
        n_groups = 0
        for value in self.codec.bits_to_intervals(bits):
            nxt = positions[-1] + value + 1
            if nxt >= stream:
                break
            positions.append(nxt)
            n_groups += 1

        if n_groups == 0:
            # Nothing fits beyond (possibly) the bare start marker; send no
            # silences at all so the receiver sees an empty message.
            return SilencePlan(mask=mask, embedded_bits=bits[:0], n_silences=0)

        for position in positions:
            slot, subcarrier = self._position_to_cell(position)
            mask[slot, subcarrier] = True
        return SilencePlan(
            mask=mask,
            embedded_bits=bits[: n_groups * k],
            n_silences=len(positions),
        )

    # ------------------------------------------------------------------

    def mask_to_positions(self, mask: np.ndarray) -> List[int]:
        """Invert a (possibly detected) mask into control-stream positions."""
        # Row-major over (slot, control index): slot * n_control + idx.
        cells = np.asarray(mask, dtype=bool)[:, self.control_subcarriers]
        return np.flatnonzero(cells).tolist()

    def recover_bits(self, mask: np.ndarray) -> np.ndarray:
        """Decode control bits from a detected silence mask.

        Raises ``ValueError`` when the detected pattern is inconsistent
        (an interval longer than the codec allows — i.e. a missed silence).
        """
        return self.codec.positions_to_bits(self.mask_to_positions(mask))
