"""802.11a receiver chain with erasure-aware decoding hooks.

The receiver is split into two stages so the CoS layer can interpose:

1. :meth:`Receiver.observe_many` — synchronise, estimate the channel from
   the LTF, FFT the payload into a raw frequency grid, and decode the
   SIGNAL field.  The raw grid is what the CoS energy detector inspects.
2. :meth:`Receiver.decode_many` — equalise, compute CSI-weighted LLRs,
   zero the metrics of any erased (silence) symbols, and run the Viterbi
   pipeline.

Both stages are batch-first: one stacked implementation processes ``B``
packets as ``(B, …)`` array operations, and the single-packet calls
:meth:`Receiver.observe`, :meth:`Receiver.decode` and
:meth:`Receiver.receive` are its ``B = 1`` case.  Every stage reduces each
packet independently, so a packet's result does not depend on the batch it
travels in (``B = N`` equals ``N`` calls at ``B = 1``, bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import backend_name
from repro.obs.trace import span
from repro.phy.frames import Mpdu, parse_mpdu
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import (
    DATA_BINS,
    PILOT_BINS,
    extract_pilots,
    time_to_grid,
)
from repro.phy.params import N_DATA_SUBCARRIERS, SYMBOL_SAMPLES
from repro.phy.plcp import (
    DecodedData,
    SignalField,
    decode_data_fields,
    signal_llrs_to_fields,
)
from repro.phy.preamble import (
    PREAMBLE_SAMPLES,
    SAMPLE_RATE_HZ,
    estimate_cfo,
    estimate_channel_and_noise_batch,
    synchronize,
)

__all__ = ["FrameObservation", "RxResult", "Receiver"]

_H_FLOOR = 1e-9


def _as_waveform_batch(samples_batch: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """Normalise a batch of waveforms to complex128 rows.

    A 2-D array, or 1-D waveforms of one length, become a
    ``(B, n_samples)`` array; waveforms of mixed lengths stay a list of
    1-D rows (the receiver groups them by length).
    """
    if isinstance(samples_batch, np.ndarray):
        batch = np.asarray(samples_batch, dtype=np.complex128)
    else:
        rows = [np.asarray(row, dtype=np.complex128) for row in samples_batch]
        if any(row.ndim != 1 for row in rows):
            raise ValueError("waveform batch entries must be 1-D sample arrays")
        if len({row.size for row in rows}) > 1:
            return rows
        batch = (
            np.stack(rows) if rows else np.zeros((0, 0), dtype=np.complex128)
        )
    if batch.ndim != 2:
        raise ValueError(
            f"expected a (B, n_samples) waveform batch, got shape {batch.shape}"
        )
    return batch


@dataclass
class FrameObservation:
    """Stage-1 output: everything measured before data decoding.

    Attributes
    ----------
    h_est:
        LS channel estimate on all 64 FFT bins (guards zero).
    h_data:
        The estimate restricted to the 48 data subcarriers, ascending order.
    noise_var:
        Per-subcarrier noise variance, pilot-refined (paper eq. (5)-(6)).
    signal:
        Decoded SIGNAL field, or None if it failed parity/rate checks.
    raw_data_grid:
        ``(n_symbols, 48)`` un-equalised data-subcarrier values — the CoS
        energy detector operates on these magnitudes.
    eq_data_grid:
        ZF-equalised, pilot-phase-corrected data symbols.
    """

    h_est: np.ndarray
    h_data: np.ndarray
    noise_var: float
    signal: Optional[SignalField]
    raw_data_grid: np.ndarray
    eq_data_grid: np.ndarray


@dataclass
class RxResult:
    """Stage-2 output: the decoded frame plus diagnostics.

    The receiver sets one of the two private fields behind
    :attr:`pre_viterbi_bits`: the hard decisions themselves (hard-decision
    mode demaps them anyway), or the equalised symbols and their
    modulation's name, demapped on first read.
    """

    mpdu: Mpdu
    signal: Optional[SignalField]
    observation: Optional[FrameObservation]
    decoded: Optional[DecodedData] = None
    _hard_bits: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _equalised: Optional[Tuple[str, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.mpdu.fcs_ok

    @property
    def pre_viterbi_bits(self) -> Optional[np.ndarray]:
        """Hard decisions on the equalised data symbols, one per coded bit
        in transmit order — the uncoded BER reference (``None`` when no
        DATA field was decoded).  Only BER studies read them, so they are
        demapped on first access, not per packet."""
        if self._hard_bits is None and self._equalised is not None:
            name, symbols = self._equalised
            self._hard_bits = get_modulation(name).demap_hard(symbols.reshape(-1))
            self._equalised = None
        return self._hard_bits


class Receiver:
    """Stateless 802.11a demodulator/decoder.

    Parameters
    ----------
    known_timing:
        If True (default — the simulator controls alignment) the frame is
        assumed to start at sample 0; otherwise matched-filter sync runs.
    """

    def __init__(
        self,
        known_timing: bool = True,
        correct_cfo: bool = True,
        decision: str = "soft",
    ):
        if decision not in ("soft", "hard"):
            raise ValueError("decision must be 'soft' or 'hard'")
        self.known_timing = known_timing
        self.correct_cfo = correct_cfo
        self.decision = decision

    # ------------------------------------------------------------------
    # Stage 1: observation
    # ------------------------------------------------------------------

    def observe(self, samples: np.ndarray) -> Optional[FrameObservation]:
        """Synchronise, estimate the channel, and decode SIGNAL.

        The ``B = 1`` case of :meth:`observe_many`.  Returns ``None`` when
        the waveform is too short to hold a preamble plus SIGNAL symbol.
        """
        with span("phy.rx.observe") as sp:
            (obs,) = self._observe_many(_as_waveform_batch(np.asarray(samples)[None]))
            if obs is not None and obs.signal is not None:
                sp.set(rate_mbps=obs.signal.rate.mbps)
            return obs

    def observe_many(
        self, samples_batch: Sequence[np.ndarray]
    ) -> List[Optional[FrameObservation]]:
        """Observe a batch of waveforms as stacked array operations.

        ``samples_batch`` is a ``(B, n_samples)`` complex array or a
        sequence of 1-D waveforms, of any lengths.  Entry ``i`` of the
        result equals ``observe(samples_batch[i])`` bit-for-bit: every
        stage — row FFTs, channel/noise estimation, pilot phase, demapping,
        SIGNAL decoding — is elementwise or reduces each packet
        independently (``tests/test_phy_batch.py`` enforces this across
        all rates).
        """
        with span("phy.rx.observe_many") as sp:
            batch = _as_waveform_batch(samples_batch)
            sp.set(n_packets=len(batch))
            return self._observe_many(batch)

    def _observe_many(
        self, batch: Sequence[np.ndarray]
    ) -> List[Optional[FrameObservation]]:
        # Grouping rule: find each row's frame start, trim the row there,
        # and stack the rows whose remaining lengths match.
        n_rows = len(batch)
        if self.known_timing:
            starts = [0] * n_rows
        else:
            starts = [synchronize(row) for row in batch]
        groups: Dict[int, List[int]] = {}
        for b, start in enumerate(starts):
            groups.setdefault(len(batch[b]) - start, []).append(b)

        out: List[Optional[FrameObservation]] = [None] * n_rows
        for n_samples, members in groups.items():
            if n_samples < PREAMBLE_SAMPLES + SYMBOL_SAMPLES:
                continue
            stack = np.stack([batch[b][starts[b]:] for b in members])
            for b, obs in zip(members, self._observe_aligned(stack)):
                out[b] = obs
        return out

    def _observe_aligned(self, batch: np.ndarray) -> List[FrameObservation]:
        """Observe a ``(B, n_samples)`` stack whose frames start at sample 0."""
        n_rows, n_samples = batch.shape
        if self.correct_cfo:
            # STF/LTF-based CFO estimate per row (320 samples each — cheap
            # next to the payload FFTs), derotated over the whole frame;
            # the pilots then track only the small residual phase drift.
            # The estimator returns exactly 0.0 on phase-clean channels
            # (the autocorrelation angle of an unrotated preamble), and
            # multiplying by exp(0j) = 1+0j is a bit-exact identity — so
            # such rows skip the derotation outright.
            derotate: Dict[int, float] = {}
            for b in range(n_rows):
                cfo = estimate_cfo(batch[b, :PREAMBLE_SAMPLES])
                if cfo != 0.0:
                    derotate[b] = cfo
            if derotate:
                batch = batch.copy()
                n = np.arange(n_samples)
                for b, cfo in derotate.items():
                    batch[b] = batch[b] * np.exp(
                        -2j * np.pi * cfo * n / SAMPLE_RATE_HZ
                    )

        h_est_b, noise_ltf_b = estimate_channel_and_noise_batch(
            batch[:, :PREAMBLE_SAMPLES]
        )

        payload = batch[:, PREAMBLE_SAMPLES:]
        n_whole = payload.shape[1] // SYMBOL_SAMPLES
        grid_b = time_to_grid(
            payload[:, : n_whole * SYMBOL_SAMPLES].reshape(-1)
        ).reshape(n_rows, n_whole, -1)

        h_data_b = h_est_b[:, DATA_BINS]
        # Zero-forcing equalisation: for a scalar per-subcarrier channel
        # the unbiased MMSE equaliser reduces exactly to ZF, and the CSI
        # weighting in the demapper plays the role MMSE would.
        safe_h_b = np.where(np.abs(h_data_b) < _H_FLOOR, _H_FLOOR, h_data_b)

        # SIGNAL symbols (polarity index 0), demapped and decoded in one
        # pass across the batch.
        signal_raw_b = grid_b[:, 0, :][:, DATA_BINS]
        phase0_b, res0_b = self._pilot_phase_batch(
            grid_b[:, :1], h_est_b, symbol_offset=0
        )
        noise0_b = self._refine_noise_batch(noise_ltf_b, res0_b)
        eq_signal_b = (signal_raw_b / safe_h_b) * np.exp(-1j * phase0_b[:, 0])[
            :, None
        ]
        csi0_b = np.abs(h_data_b) ** 2 / np.maximum(noise0_b, 1e-15)[:, None]
        signal_llrs = (
            get_modulation("bpsk")
            .demap_soft(eq_signal_b.reshape(-1), csi0_b.reshape(-1))
            .reshape(n_rows, -1)
        )
        signals = signal_llrs_to_fields(signal_llrs)

        # DATA symbols (polarity indices 1..n): rows sharing a symbol count
        # (in practice: every row of a same-spec batch) are equalised and
        # phase-tracked as one stack.
        n_avail = n_whole - 1
        groups: Dict[int, List[int]] = {}
        for b, signal in enumerate(signals):
            n_data = n_avail
            if signal is not None:
                n_data = min(n_data, signal.n_data_symbols)
            groups.setdefault(n_data, []).append(b)

        out: List[Optional[FrameObservation]] = [None] * n_rows
        for n_data, members in groups.items():
            # Gathering with an index array copies every operand, even when
            # the group is the whole batch; a basic slice does not.
            if len(members) == n_rows:
                rows = slice(None)
            else:
                rows = np.asarray(members, dtype=np.intp)
            data_grid_g = grid_b[rows, 1 : 1 + n_data]
            raw_g = data_grid_g[:, :, DATA_BINS]
            phase_g, res_g = self._pilot_phase_batch(
                data_grid_g, h_est_b[rows], symbol_offset=1
            )
            noise_g = self._refine_noise_batch(
                noise_ltf_b[rows], np.concatenate([res0_b[rows], res_g], axis=1)
            )
            eq_g = (raw_g / safe_h_b[rows][:, None, :]) * np.exp(-1j * phase_g)[
                :, :, None
            ]
            for i, b in enumerate(members):
                out[b] = FrameObservation(
                    h_est=h_est_b[b],
                    h_data=h_data_b[b],
                    noise_var=float(noise_g[i]),
                    signal=signals[b],
                    raw_data_grid=raw_g[i],
                    eq_data_grid=eq_g[i],
                )
        return out  # type: ignore[return-value]

    @staticmethod
    def _pilot_phase_batch(
        grids: np.ndarray, h_est_b: np.ndarray, symbol_offset: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Common-phase-error per symbol and raw pilot residuals.

        ``grids`` is a ``(B, n_symbols, 64)`` stack.  The residuals
        (received minus expected pilot values, before equalisation) feed
        the pilot-aided noise estimate of eq. (6).
        """
        received = grids[:, :, PILOT_BINS]
        # The transmitted pilot values depend only on (n_symbols, offset).
        _, sent = extract_pilots(grids[0], symbol_offset)
        h_pilots = h_est_b[:, PILOT_BINS]
        expected = sent[None, :, :] * h_pilots[:, None, :]
        # The correlation must reduce a C-contiguous array: numpy picks a
        # different accumulation order for strided reduction inputs, which
        # would make a row's phase depend on the batch around it by an ulp.
        products = np.ascontiguousarray(received * np.conj(expected))
        corr = np.sum(products, axis=2)
        phase = np.angle(np.where(corr == 0, 1.0, corr))
        residuals = received * np.exp(-1j * phase)[:, :, None] - expected
        return phase, residuals.reshape(grids.shape[0], -1)

    @staticmethod
    def _refine_noise_batch(
        noise_ltf_b: np.ndarray, pilot_residuals_b: np.ndarray
    ) -> np.ndarray:
        """Blend the LTF floor with the pilot residual power (eq. (5)-(6)).

        The residual-power mean reduces one row at a time: numpy's axis-1
        reduction can split its pairwise summation differently than a 1-D
        reduction, which would make a row's estimate depend on the batch
        around it by an ulp.
        """
        if pilot_residuals_b.shape[1] == 0:
            return np.asarray(noise_ltf_b, dtype=np.float64)
        power = np.abs(pilot_residuals_b) ** 2
        pilot_var = np.array([float(np.mean(row)) for row in power])
        return 0.5 * (noise_ltf_b + pilot_var)

    # ------------------------------------------------------------------
    # Stage 2: decoding
    # ------------------------------------------------------------------

    def decode(
        self,
        obs: FrameObservation,
        erasure_mask: Optional[np.ndarray] = None,
    ) -> RxResult:
        """Decode the DATA field of an observation.

        The ``B = 1`` case of :meth:`decode_many`.  ``erasure_mask`` is
        ``(n_symbols, 48)`` bool; True entries have all their bit metrics
        zeroed before deinterleaving — the EVD rule of eq. (7).
        """
        with span("phy.rx.decode") as sp:
            sp.set(kernel_backend=backend_name())
            (result,) = self._decode_many([obs], [erasure_mask])
            if result.signal is not None:
                sp.set(rate_mbps=result.signal.rate.mbps, crc_ok=result.ok)
            return result

    def decode_many(
        self,
        observations: Sequence[Optional[FrameObservation]],
        erasure_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[RxResult]:
        """Decode a batch of observations as stacked array operations.

        Observations sharing a (rate, length) — every member of a
        same-spec batch — are demapped in one :meth:`Modulation.demap_soft`
        call and Viterbi-decoded through the backend's batch kernel;
        stragglers (failed SIGNAL, truncated grids, ``None`` entries from
        :meth:`observe_many`) yield a failed :class:`RxResult`.  Entry
        ``i`` equals ``decode(observations[i], erasure_masks[i])``
        bit-for-bit.
        """
        if erasure_masks is not None and len(erasure_masks) != len(observations):
            raise ValueError(
                f"{len(erasure_masks)} erasure masks for "
                f"{len(observations)} observations"
            )
        with span("phy.rx.decode_many") as sp:
            sp.set(n_packets=len(observations), kernel_backend=backend_name())
            return self._decode_many(observations, erasure_masks)

    def _decode_many(
        self,
        observations: Sequence[Optional[FrameObservation]],
        erasure_masks: Optional[Sequence[Optional[np.ndarray]]],
    ) -> List[RxResult]:
        out: List[Optional[RxResult]] = [None] * len(observations)
        groups: Dict[Tuple[float, int], List[int]] = {}
        for i, obs in enumerate(observations):
            if obs is None or obs.signal is None:
                out[i] = RxResult(mpdu=parse_mpdu(None), signal=None, observation=obs)
            elif obs.eq_data_grid.shape[0] < obs.signal.n_data_symbols:
                out[i] = RxResult(
                    mpdu=parse_mpdu(None), signal=obs.signal, observation=obs
                )
            else:
                key = (obs.signal.rate.mbps, obs.signal.length)
                groups.setdefault(key, []).append(i)

        for members in groups.values():
            first = observations[members[0]]
            rate = first.signal.rate
            length = first.signal.length
            n_symbols = first.signal.n_data_symbols
            modulation = get_modulation(rate.modulation)
            eq_g = np.stack(
                [observations[i].eq_data_grid[:n_symbols] for i in members]
            )
            hard_rows = None
            if self.decision == "soft":
                csi_rows = np.stack(
                    [
                        np.abs(observations[i].h_data) ** 2
                        / max(observations[i].noise_var, 1e-15)
                        for i in members
                    ]
                )
                csi_full = np.broadcast_to(csi_rows[:, None, :], eq_g.shape)
                llrs = modulation.demap_soft(
                    eq_g.reshape(-1), csi_full.reshape(-1)
                )
            else:
                # Hard-decision, CSI-blind input — the fidelity mode matching
                # first-generation software radios like Sora's SoftWiFi, kept
                # for the decoder-fidelity ablation.
                from repro.phy.viterbi import hard_bits_to_llrs

                hard = modulation.demap_hard(eq_g.reshape(-1))
                hard_rows = hard.reshape(len(members), -1)
                llrs = hard_bits_to_llrs(hard)
            llrs = llrs.reshape(
                len(members), n_symbols, N_DATA_SUBCARRIERS,
                modulation.bits_per_symbol,
            )
            for row, i in enumerate(members):
                mask = None if erasure_masks is None else erasure_masks[i]
                if mask is not None:
                    mask = np.asarray(mask, dtype=bool)
                    if mask.shape != (n_symbols, N_DATA_SUBCARRIERS):
                        raise ValueError(
                            f"erasure_mask shape {mask.shape} != "
                            f"({n_symbols}, {N_DATA_SUBCARRIERS})"
                        )
                    llrs[row, mask] = 0.0
            decoded_rows = decode_data_fields(
                llrs.reshape(len(members), -1), rate, length
            )
            for row, i in enumerate(members):
                obs = observations[i]
                out[i] = RxResult(
                    mpdu=parse_mpdu(decoded_rows[row].psdu),
                    signal=obs.signal,
                    observation=obs,
                    decoded=decoded_rows[row],
                    _hard_bits=None if hard_rows is None else hard_rows[row],
                    _equalised=(
                        (rate.modulation, eq_g[row]) if hard_rows is None else None
                    ),
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def receive(
        self, samples: np.ndarray, erasure_mask: Optional[np.ndarray] = None
    ) -> RxResult:
        """Full pipeline: observe then decode (the ``B = 1`` case of
        :meth:`receive_many`)."""
        obs = self.observe(samples)
        if obs is None:
            return RxResult(mpdu=parse_mpdu(None), signal=None, observation=None)
        return self.decode(obs, erasure_mask)

    def receive_many(
        self,
        samples_batch: Sequence[np.ndarray],
        erasure_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[RxResult]:
        """Batched full pipeline over waveforms of any lengths.

        Bit-for-bit equal to ``[receive(w, m) for w, m in zip(...)]`` —
        same PSDUs, same CRC outcomes, same soft metrics — while running
        the per-packet work (FFTs, channel estimation, demapping, Viterbi)
        as stacked array operations.
        """
        observations = self.observe_many(samples_batch)
        return self.decode_many(observations, erasure_masks)
