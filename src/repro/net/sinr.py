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
2. *Measured PRR*: above capture, the frame decodes with the packet
   reception rate the real PHY measured at that SINR and rate — the
   monotone-fitted curves of the committed surrogate table
   (:func:`repro.phy.surrogate.load_default_table`, loaded once per
   process).

The same table answers the control plane's question: the probability
that a CoS message embedded in a decoded carrier decodes exactly at the
carrier's SINR (:meth:`~repro.phy.surrogate.SurrogateTable.cos_delivery_prob`,
see :mod:`repro.net.control`).  There is no analytic or hand-set
alternative to either curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from repro.phy.surrogate import SurrogateTable, load_default_table

__all__ = [
    "dbm_to_mw",
    "mw_to_dbm",
    "sinr_db",
    "ReceptionModel",
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
class ReceptionModel:
    """Capture gate + measured-PRR draw; returns (ok, reason).

    The PRR curves are the committed table's; only the capture gate is
    a setting.
    """

    capture_threshold_db: float = 4.0
    table: SurrogateTable = field(
        init=False, repr=False, compare=False, default_factory=load_default_table,
    )

    def decide(self, sinr_db: float, rate_mbps: int,
               rng: np.random.Generator) -> Tuple[bool, str]:
        """Decide one frame's fate.  Reasons: ``ok`` | ``collision`` | ``channel_error``.

        Draws exactly once from ``rng`` (the receiver's fate stream),
        whatever the capture verdict, so the k-th reception at a
        receiver always takes the k-th draw of its stream.
        """
        draw = float(rng.random())
        if sinr_db < self.capture_threshold_db:
            return False, "collision"
        if draw < self.table.prr(sinr_db, rate_mbps):
            return True, "ok"
        return False, "channel_error"
