"""Feedback-driven controllers: the SNR-threshold staircase family.

:class:`SnrThresholdController` is the existing
:class:`~repro.ratectl.staircase.RateAdapter` behind the
:class:`~repro.ratectl.base.RateController` interface, and the
default controller of every :mod:`repro.net` scenario.  It adapts
purely on delivered SINR feedback and inherits the scenario's control
transport.

:class:`CosFeedbackController` and :class:`ExplicitFeedbackController`
are the same staircase with the transport *pinned*: they exist so the
``repro net compare`` matrix can put "today's CoS behaviour" and
"today's explicit behaviour" side by side in one run regardless of what
the scenario file says.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.mac.dcf import BASE_RATE_MBPS
from repro.ratectl.base import RateController, register
from repro.ratectl.staircase import RateAdapter

__all__ = [
    "SnrThresholdController",
    "CosFeedbackController",
    "ExplicitFeedbackController",
]


@register
class SnrThresholdController(RateController):
    """Stair-case selection from receiver-reported SINR (Holland et al.)."""

    name = "snr-threshold"
    transport = None  # inherit the scenario's control mode
    uses_feedback = True

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 rates: Optional[Tuple[int, ...]] = None,
                 adapter: Optional[RateAdapter] = None) -> None:
        super().__init__(rng=rng, rates=rates)
        self.adapter = adapter or RateAdapter()
        self._rates: Dict[Tuple[str, str], int] = {}

    def select_rate(self, src: str, dst: str, retries: int = 0) -> int:
        return self._rates.get((src, dst), BASE_RATE_MBPS)

    def on_feedback(self, src: str, dst: str, sinr_db: float) -> None:
        self._rates[(src, dst)] = self.adapter.select(sinr_db).mbps


@register
class CosFeedbackController(SnrThresholdController):
    """The staircase fed over CoS silences — today's ``control="cos"``."""

    name = "cos-feedback"
    transport = "cos"


@register
class ExplicitFeedbackController(SnrThresholdController):
    """The staircase fed by contending control frames — ``"explicit"``."""

    name = "explicit-feedback"
    transport = "explicit"
