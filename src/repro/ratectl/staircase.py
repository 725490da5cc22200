"""SNR-based stair-case data-rate adaptation.

The sender picks the highest 802.11a rate whose *minimum required SNR* is
at or below the receiver-reported (measured) SNR — the scheme of Holland
et al. that the paper adopts (§II-C, ref. [6]).  Because rates are
discrete and SNR is continuous, the selected rate's requirement is almost
always strictly below the actual channel SNR: that difference is the SNR
gap CoS converts into free control capacity.

The thresholds below are anchored to the figures in the paper: 24 Mbps
requires 12 dB (Fig. 2 text), its band extends to 17.3 dB (Fig. 3 x-axis),
the 12 Mbps band is 7.1–9.5 dB and the 54 Mbps band starts at 22.4 dB
(Fig. 9 discussion).

This module is the measurement core shared by every feedback-driven
:class:`repro.ratectl.RateController`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.phy.params import RATE_TABLE, PhyRate

__all__ = ["DEFAULT_THRESHOLDS", "RateAdapter", "select_rate", "min_required_snr_db"]

# mbps -> minimum required measured SNR (dB).
DEFAULT_THRESHOLDS: Dict[int, float] = {
    6: 2.0,
    9: 5.0,
    12: 7.1,
    18: 9.5,
    24: 12.0,
    36: 17.3,
    48: 20.0,
    54: 22.4,
}


@dataclass(frozen=True)
class RateAdapter:
    """Stair-case rate selector.

    ``thresholds`` maps Mbps to the minimum measured SNR that enables that
    rate; they must be monotone in rate.
    """

    thresholds: Dict[int, float] = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def __post_init__(self):
        rates = sorted(self.thresholds)
        snrs = [self.thresholds[r] for r in rates]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("thresholds must increase strictly with rate")
        for mbps in rates:
            if mbps not in RATE_TABLE:
                raise ValueError(f"{mbps} Mbps is not an 802.11a rate")

    def select(self, measured_snr_db: float) -> PhyRate:
        """Highest rate supported at ``measured_snr_db`` (lowest as floor)."""
        best = min(self.thresholds)
        for mbps in sorted(self.thresholds):
            if measured_snr_db >= self.thresholds[mbps]:
                best = mbps
        return RATE_TABLE[best]

    def min_required_snr_db(self, rate: PhyRate) -> float:
        """The minimum measured SNR of ``rate`` (the staircase of Fig. 2)."""
        try:
            return self.thresholds[rate.mbps]
        except KeyError:
            raise KeyError(f"no threshold configured for {rate.mbps} Mbps") from None

    def band(self, rate: PhyRate) -> Tuple[float, float]:
        """The [low, high) measured-SNR interval in which ``rate`` is chosen.

        The top rate's band is open-ended (``high = inf``).
        """
        rates = sorted(self.thresholds)
        low = self.thresholds[rate.mbps]
        above = [self.thresholds[m] for m in rates if self.thresholds[m] > low]
        high = min(above) if above else float("inf")
        return low, high


_DEFAULT = RateAdapter()


def select_rate(measured_snr_db: float) -> PhyRate:
    """Module-level shortcut using :data:`DEFAULT_THRESHOLDS`."""
    return _DEFAULT.select(measured_snr_db)


def min_required_snr_db(rate: PhyRate) -> float:
    """Module-level shortcut using :data:`DEFAULT_THRESHOLDS`."""
    return _DEFAULT.min_required_snr_db(rate)
