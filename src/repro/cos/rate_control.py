"""Adaptive rate selection for control messages (§III-F).

Like data-rate adaptation, CoS keeps a lookup table mapping the receiver's
measured SNR to the maximum sustainable silence-symbol rate Rm (Fig. 9)
and picks the control-message rate accordingly, so the inserted silences
never exceed the channel code's spare correction capability and the data
PRR stays at its target (99.3 % in the paper).  When a data packet fails,
no feedback arrives and the sender falls back to the lowest control rate.

The default table is shaped after Fig. 9: within each data-rate band Rm
grows with SNR (more spare redundancy) and saturates; ceilings drop with
modulation order and code rate, from 148 k silences/s in the QPSK-1/2
band down to 33 k at the 64QAM-3/4 band edge (22.4 dB).  Running
``repro.experiments.fig9`` recalibrates the table for this simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cos.intervals import IntervalCodec
from repro.obs.trace import span
from repro.phy.params import PhyRate, SYMBOL_DURATION_S
from repro.ratectl import RateAdapter

__all__ = ["DEFAULT_RM_TABLE", "ControlRateTable", "ControlAllocation", "ControlRateController"]

# mbps -> (Rm at band low edge, Rm at band high edge), silences per second.
DEFAULT_RM_TABLE: Dict[int, Tuple[float, float]] = {
    6: (40_000.0, 70_000.0),
    9: (60_000.0, 85_000.0),
    12: (110_000.0, 148_000.0),
    18: (95_000.0, 125_000.0),
    24: (80_000.0, 118_000.0),
    36: (60_000.0, 88_000.0),
    48: (50_000.0, 70_000.0),
    54: (33_000.0, 52_000.0),
}

_PREAMBLE_S = 16e-6
_SIGNAL_S = 4e-6
_TOP_BAND_WIDTH_DB = 3.0


@dataclass(frozen=True)
class ControlRateTable:
    """Piecewise-linear Rm(SNR), one segment per data-rate band."""

    adapter: RateAdapter = field(default_factory=RateAdapter)
    rm_by_rate: Dict[int, Tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_RM_TABLE)
    )

    def __post_init__(self):
        for mbps, (low, high) in self.rm_by_rate.items():
            if low < 0 or high < 0:
                raise ValueError(f"negative Rm for {mbps} Mbps")

    def rm_for(self, measured_snr_db: float) -> float:
        """Max sustainable silence symbols per second at this SNR."""
        rate = self.adapter.select(measured_snr_db)
        try:
            rm_low, rm_high = self.rm_by_rate[rate.mbps]
        except KeyError:
            raise KeyError(f"no Rm entry for {rate.mbps} Mbps") from None
        low, high = self.adapter.band(rate)
        if high == float("inf"):
            high = low + _TOP_BAND_WIDTH_DB
        span = max(high - low, 1e-9)
        frac = min(max((measured_snr_db - low) / span, 0.0), 1.0)
        return rm_low + frac * (rm_high - rm_low)

    def lowest_rm(self) -> float:
        """The conservative fallback rate used after a data-packet failure."""
        return min(min(pair) for pair in self.rm_by_rate.values())

    def with_entry(self, mbps: int, rm_low: float, rm_high: float) -> "ControlRateTable":
        """A copy with one band recalibrated (used by the Fig. 9 harness)."""
        updated = dict(self.rm_by_rate)
        updated[mbps] = (rm_low, rm_high)
        return ControlRateTable(adapter=self.adapter, rm_by_rate=updated)

    @classmethod
    def from_measurements(
        cls,
        points,
        adapter: Optional[RateAdapter] = None,
        base: Optional["ControlRateTable"] = None,
    ) -> "ControlRateTable":
        """Build a table from Fig. 9-style capacity measurements.

        ``points`` is an iterable of objects with ``measured_snr_db``,
        ``rate_mbps`` and ``rm_per_sec`` attributes (e.g.
        :class:`repro.experiments.fig9.CapacityPoint`).  For each rate band
        the lowest-SNR measurement calibrates the band-low Rm and the
        highest-SNR one the band-high Rm; points without an Rm (``None``:
        an invalid Fig. 9 point) are skipped, and bands with no
        measurements keep the ``base`` table's entries.  This is exactly
        the lookup-table construction the paper describes in §III-F
        ("based on our extensive experiments, we can obtain the mapping
        between channel SNRs and control message rates").
        """
        adapter = adapter or RateAdapter()
        table = base or cls(adapter=adapter)
        by_rate: Dict[int, list] = {}
        for point in points:
            if point.rm_per_sec is not None:
                by_rate.setdefault(point.rate_mbps, []).append(point)
        for mbps, band_points in by_rate.items():
            band_points.sort(key=lambda p: p.measured_snr_db)
            rm_low = band_points[0].rm_per_sec
            rm_high = band_points[-1].rm_per_sec
            table = table.with_entry(mbps, rm_low, max(rm_high, rm_low))
        return table


@dataclass(frozen=True)
class ControlAllocation:
    """Per-packet control-channel budget.

    Attributes
    ----------
    n_control_subcarriers:
        How many (weakest) subcarriers the selector should pick.
    max_control_bits:
        Whole k-bit groups the packet may carry at the chosen rate.
    target_silences:
        The silence budget the allocation was derived from.
    """

    n_control_subcarriers: int
    max_control_bits: int
    target_silences: int


class ControlRateController:
    """Turns the Rm table into concrete per-packet allocations.

    Parameters
    ----------
    table:
        SNR -> Rm lookup.
    codec:
        Interval codec (sets bits per silence and expected stream usage).
    safety:
        Fraction of Rm actually used (headroom against EVM prediction
        error); the paper tunes R up to Rm, we default slightly under.
    max_subcarriers:
        Cap on control subcarriers per packet.
    """

    def __init__(
        self,
        table: Optional[ControlRateTable] = None,
        codec: Optional[IntervalCodec] = None,
        safety: float = 0.9,
        max_subcarriers: int = 16,
    ):
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if max_subcarriers < 1:
            raise ValueError("max_subcarriers must be >= 1")
        self.table = table or ControlRateTable()
        self.codec = codec or IntervalCodec()
        self.safety = safety
        self.max_subcarriers = max_subcarriers
        self._fallback = False

    # ------------------------------------------------------------------

    @staticmethod
    def packet_airtime_s(n_data_symbols: int) -> float:
        """PPDU airtime: preamble + SIGNAL + data symbols."""
        return _PREAMBLE_S + _SIGNAL_S + n_data_symbols * SYMBOL_DURATION_S

    def on_data_result(self, data_ok: bool) -> None:
        """Record the fate of the last packet (failure triggers fallback).

        Fallback enter/exit transitions show in the ``cos.exchange``
        trace event's ``fallback_transition`` field.
        """
        self._fallback = not data_ok

    @property
    def in_fallback(self) -> bool:
        return self._fallback

    def allocation(self, measured_snr_db: float, n_data_symbols: int) -> ControlAllocation:
        """Budget for the next packet at the current channel state."""
        if n_data_symbols < 1:
            raise ValueError("packet must contain at least one data symbol")
        with span("cos.rate_control.allocation") as sp:
            alloc = self._allocation(measured_snr_db, n_data_symbols)
            sp.set(target_silences=alloc.target_silences,
                   in_fallback=self._fallback)
            return alloc

    def _allocation(self, measured_snr_db: float, n_data_symbols: int) -> ControlAllocation:
        rm = self.table.lowest_rm() if self._fallback else self.table.rm_for(measured_snr_db)
        airtime = self.packet_airtime_s(n_data_symbols)
        target_silences = int(rm * airtime * self.safety)
        if target_silences < 2:
            return ControlAllocation(1, 0, target_silences)

        # Each interval (one k-bit group) costs one silence plus E[v] active
        # positions; size the control stream to fit the budget.
        k = self.codec.k
        per_interval_positions = self.codec.max_interval / 2.0 + 1.0
        needed_positions = 1 + (target_silences - 1) * per_interval_positions
        n_subcarriers = int(-(-needed_positions // n_data_symbols))
        n_subcarriers = max(1, min(n_subcarriers, self.max_subcarriers))
        max_bits = (target_silences - 1) * k
        return ControlAllocation(
            n_control_subcarriers=n_subcarriers,
            max_control_bits=max_bits,
            target_silences=target_silences,
        )

    def control_capacity_bps(self, measured_snr_db: float) -> float:
        """Steady-state control throughput (bits/s) at this SNR.

        One silence symbol terminates each k-bit interval, so the capacity
        is ``Rm * k`` — the paper's 132 kbps at Rm = 33 000 with k = 4.
        """
        return self.table.rm_for(measured_snr_db) * self.codec.k
