"""SINR accumulation and the SINR-keyed reception decision.

The central modelling choice (after SiNE): when a CSMA MAC coexists with
hidden nodes, reception must be decided by **SINR, not SNR** — concurrent
transmissions from nodes outside carrier-sense range accumulate as
interference power in the denominator:

    SINR = S / (N + sum_i I_i)        (linear, mW)

Decoding is a two-stage decision:

1. *Capture*: the receiver locks onto the frame only if its SINR clears
   ``capture_threshold_db``.  A strong frame therefore survives a
   collision with a weak one (capture effect); the weak frame's SINR goes
   negative and it is lost.
2. *Error model*: above capture, the frame decodes with a rate-dependent
   packet success probability.  :class:`SigmoidErrorModel` anchors each
   rate's waterfall to the paper's stair-case adaptation thresholds
   (:data:`repro.ratectl.DEFAULT_THRESHOLDS`): at the threshold SNR the
   PRR is ~0.99 (the paper's working-region figure), a few dB below it
   the PRR collapses — the usual coded-OFDM cliff.

:func:`cos_delivery_prob_for` maps the carrier frame's SINR to a CoS
silence-message delivery probability.  The anchor points are the
link-level operating points measured by the Fig. 10 harness
(``LinkStats.message_accuracy``): ~0.97 in the working region, degrading
toward threshold.  Scenarios may override with a fixed probability or
(for small scenarios) measure it by running the full ``cos.link`` PHY —
see :mod:`repro.net.control`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.ratectl import DEFAULT_THRESHOLDS

__all__ = [
    "dbm_to_mw",
    "mw_to_dbm",
    "sinr_db",
    "SigmoidErrorModel",
    "SinrModel",
    "ReceptionModel",
    "cos_delivery_prob_for",
]

_FLOOR_DBM = -400.0  # "no power": far below any sensitivity


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    if mw <= 0.0:
        return _FLOOR_DBM
    return 10.0 * math.log10(mw)


def sinr_db(signal_dbm: float, interferer_dbms: Iterable[float],
            noise_dbm: float) -> float:
    """SINR with interference accumulated in the linear domain."""
    denom_mw = dbm_to_mw(noise_dbm) + sum(dbm_to_mw(i) for i in interferer_dbms)
    return signal_dbm - mw_to_dbm(denom_mw)


@dataclass(frozen=True)
class SigmoidErrorModel:
    """Per-rate SINR -> packet success probability waterfall.

    ``prr(sinr) = sigmoid((sinr - (threshold - offset)) / scale)`` — the
    midpoint sits ``offset_db`` below the rate's adaptation threshold so
    that *at* the threshold the PRR is ~0.99, matching the premise of
    stair-case adaptation (pick the highest rate that still delivers).
    """

    offset_db: float = 3.0
    scale_db: float = 0.7
    thresholds: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )

    def prr(self, sinr_db: float, rate_mbps: int) -> float:
        try:
            threshold = self.thresholds[rate_mbps]
        except KeyError:
            raise KeyError(
                f"no threshold for {rate_mbps} Mbps; known: {sorted(self.thresholds)}"
            ) from None
        x = (sinr_db - (threshold - self.offset_db)) / self.scale_db
        # Clamp the exponent so extreme SINRs don't overflow.
        x = min(max(x, -60.0), 60.0)
        return 1.0 / (1.0 + math.exp(-x))


class SinrModel:
    """Measured-PHY SINR curves behind the error-model interface.

    Wraps a :class:`repro.phy.surrogate.SurrogateTable` — real-PHY PRR
    sweeps, monotone-fitted — and exposes the two lookups the network
    layer keys frame fates on:

    * :meth:`prr` is drop-in compatible with
      :class:`SigmoidErrorModel.prr` (so a ``ReceptionModel`` can run on
      measured curves instead of the analytic waterfall);
    * :meth:`cos_delivery_prob` replays the per-integer-dB CoS accuracy
      :func:`repro.phy.surrogate.measure_cos_point` measured, clamped
      outside the grid (``cos_fidelity="surrogate"``).

    Construct via :meth:`default` (the committed table) or
    :meth:`from_path`; the default-table load is cached process-wide,
    so per-frame lookups never touch the filesystem.
    """

    _default: "SinrModel" = None  # class-level cache

    def __init__(self, table) -> None:
        self.table = table

    @classmethod
    def default(cls) -> "SinrModel":
        if cls._default is None:
            from repro.phy.surrogate import load_default_table

            cls._default = cls(load_default_table())
        return cls._default

    @classmethod
    def from_path(cls, path) -> "SinrModel":
        from repro.phy.surrogate import SurrogateTable

        return cls(SurrogateTable.load(path))

    def prr(self, sinr_db: float, rate_mbps: int) -> float:
        return self.table.prr(sinr_db, rate_mbps)

    def cos_delivery_prob(self, sinr_db: float) -> float:
        return self.table.cos_delivery_prob(sinr_db)


@dataclass(frozen=True)
class ReceptionModel:
    """Capture gate + error-model draw; returns (ok, reason)."""

    capture_threshold_db: float = 4.0
    error_model: SigmoidErrorModel = field(default_factory=SigmoidErrorModel)

    def decide(self, sinr_db: float, rate_mbps: int,
               rng: np.random.Generator) -> Tuple[bool, str]:
        """Decide one frame's fate.  Reasons: ``ok`` | ``collision`` | ``channel_error``.

        The RNG is always consumed exactly once so that reception
        outcomes stay on a deterministic stream regardless of the
        capture decision.
        """
        draw = float(rng.random())
        if sinr_db < self.capture_threshold_db:
            return False, "collision"
        if draw < self.error_model.prr(sinr_db, rate_mbps):
            return True, "ok"
        return False, "channel_error"


# Operating points from the link-level harnesses (Fig. 10 /
# ``LinkStats.message_accuracy``): (minimum SINR dB, per-message delivery
# probability), highest band first.
_COS_OPERATING_POINTS: Tuple[Tuple[float, float], ...] = (
    (15.0, 0.97),
    (8.0, 0.95),
    (2.0, 0.85),
)
_COS_FLOOR_PROB = 0.5  # below the lowest band silences are near-coin-flips


def cos_delivery_prob_for(sinr_db: float) -> float:
    """Per-message CoS delivery probability at the carrier's SINR."""
    for min_sinr, prob in _COS_OPERATING_POINTS:
        if sinr_db >= min_sinr:
            return prob
    return _COS_FLOOR_PROB
