"""802.11a transmitter chain with the CoS power-controller hook.

``Transmitter.transmit`` produces the full baseband PPDU waveform:
preamble, SIGNAL symbol, and DATA symbols.  A boolean ``silence_mask``
(one flag per data-subcarrier symbol) zeroes the chosen constellation
points before the IFFT — precisely how the paper implements silence
symbols "by simply feeding 0 instead of modulated data symbols" (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.obs.trace import span
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import grid_to_time, map_to_grid
from repro.phy.params import N_DATA_SUBCARRIERS, PhyRate
from repro.phy.plcp import (
    DEFAULT_SCRAMBLER_STATE,
    encode_data_field,
    encode_signal_bits,
    signal_bits_to_symbols,
)
from repro.phy.preamble import generate_preamble

__all__ = ["TxFrame", "Transmitter"]


@lru_cache(maxsize=1024)
def _header_samples(rate: PhyRate, length: int) -> np.ndarray:
    """Preamble + SIGNAL symbol samples (read-only).

    Neither depends on the payload, only on the rate and the PSDU length,
    so each pair is encoded, mapped and IFFT'd once.
    """
    signal_symbols = signal_bits_to_symbols(
        encode_signal_bits(rate, length)
    ).reshape(1, N_DATA_SUBCARRIERS)
    signal_grid = map_to_grid(signal_symbols, symbol_offset=0)
    header = np.concatenate([generate_preamble(), grid_to_time(signal_grid)])
    header.flags.writeable = False
    return header


@dataclass(frozen=True)
class TxFrame:
    """A transmitted PPDU plus the ground truth the experiments need.

    Attributes
    ----------
    waveform:
        Complex baseband samples (preamble + SIGNAL + DATA).
    rate:
        PHY rate used for the DATA field.
    psdu:
        The MAC frame handed to the PHY.
    data_symbols:
        ``(n_symbols, 48)`` ideal constellation points *before* silencing —
        the reference for EVM and symbol-error measurements.
    coded_bits:
        Interleaved coded bit stream (the decoder-input ground truth).
    silence_mask:
        ``(n_symbols, 48)`` bool, True where a silence symbol was inserted
        (all False when CoS is idle).
    """

    waveform: np.ndarray
    rate: PhyRate
    psdu: bytes
    data_symbols: np.ndarray
    coded_bits: np.ndarray
    silence_mask: np.ndarray

    @property
    def n_data_symbols(self) -> int:
        return self.data_symbols.shape[0]


class Transmitter:
    """Stateless 802.11a modulator."""

    def __init__(self, scrambler_state: int = DEFAULT_SCRAMBLER_STATE):
        self.scrambler_state = scrambler_state

    def transmit(
        self,
        psdu: bytes,
        rate: PhyRate,
        silence_mask: Optional[np.ndarray] = None,
    ) -> TxFrame:
        """Modulate ``psdu`` at ``rate``, optionally inserting silences.

        ``silence_mask`` must be ``(n_data_symbols, 48)`` boolean; use
        :meth:`n_data_symbols_for` to size it before calling.
        """
        if not psdu:
            raise ValueError("psdu must be non-empty")
        with span("phy.tx.modulate") as sp:
            sp.set(rate_mbps=rate.mbps, psdu_bytes=len(psdu))
            return self._transmit(psdu, rate, silence_mask)

    def _transmit(
        self,
        psdu: bytes,
        rate: PhyRate,
        silence_mask: Optional[np.ndarray],
    ) -> TxFrame:
        coded_bits = encode_data_field(psdu, rate, self.scrambler_state)
        modulation = get_modulation(rate.modulation)
        data_symbols = modulation.map_bits(coded_bits).reshape(-1, N_DATA_SUBCARRIERS)
        n_symbols = data_symbols.shape[0]

        if silence_mask is None:
            silence_mask = np.zeros((n_symbols, N_DATA_SUBCARRIERS), dtype=bool)
        else:
            silence_mask = np.asarray(silence_mask, dtype=bool)
            if silence_mask.shape != data_symbols.shape:
                raise ValueError(
                    f"silence_mask shape {silence_mask.shape} != "
                    f"data grid shape {data_symbols.shape}"
                )

        sent_symbols = np.where(silence_mask, 0.0 + 0.0j, data_symbols)
        data_grid = map_to_grid(sent_symbols, symbol_offset=1)

        waveform = np.concatenate(
            [_header_samples(rate, len(psdu)), grid_to_time(data_grid)]
        )
        return TxFrame(
            waveform=waveform,
            rate=rate,
            psdu=psdu,
            data_symbols=data_symbols,
            coded_bits=coded_bits,
            silence_mask=silence_mask,
        )

    @staticmethod
    def n_data_symbols_for(psdu_len: int, rate: PhyRate) -> int:
        """Data-symbol count for a PSDU of ``psdu_len`` octets at ``rate``."""
        return rate.n_symbols_for(psdu_len)
