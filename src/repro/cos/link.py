"""End-to-end CoS link: the architecture of Fig. 8, in software.

``CosTransmitter`` adds the power-controller path to the 802.11a
transmitter: control bits from a queue are interval-coded into silence
positions on the control subcarriers the receiver fed back, at the rate
the adaptive controller allows.

``CosReceiver`` adds the energy-detector path: silences are located on the
raw FFT grid, interpreted into control bits, and passed to the erasure
Viterbi decoding as zeroed bit metrics.  After a CRC-clean packet it
re-encodes the decoded bits, reconstructs the ideal constellation points,
computes per-subcarrier EVM (silences excluded) and selects the weak
subcarriers for the next packet (§III-D).  ``receive`` handles one PPDU;
``receive_many`` runs the same steps over a batch, with one stacked
observe and one stacked EVD decode (the open-loop PRR probe of
:mod:`repro.phy.surrogate` uses it).

``CosLink`` closes the loop over an :class:`~repro.channel.IndoorChannel`:
NIC-SNR-driven data-rate adaptation, subcarrier-selection feedback (only
delivered when the data packet succeeded, as in the paper), control-rate
fallback on failure, and walking-speed channel evolution between packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.link import IndoorChannel
from repro.cos.energy import DetectionReport, EnergyDetector
from repro.obs.trace import current_tracer, event, span
from repro.cos.evm import per_subcarrier_evm
from repro.cos.intervals import IntervalCodec
from repro.cos.predictor import EvmPredictor
from repro.cos.rate_control import ControlAllocation, ControlRateController
from repro.cos.selection import SelectionResult, SubcarrierSelector
from repro.cos.silence import DEFAULT_CONTROL_SUBCARRIERS, SilencePlan, SilencePlanner
from repro.phy.convcode import conv_encode, puncture
from repro.phy.frames import build_mpdu, parse_mpdu
from repro.phy.interleaver import interleave
from repro.phy.modulation import get_modulation
from repro.phy.params import N_DATA_SUBCARRIERS, PhyRate
from repro.phy.receiver import FrameObservation, Receiver, RxResult
from repro.phy.transmitter import Transmitter, TxFrame
from repro.ratectl import RateAdapter

__all__ = [
    "reconstruct_reference_symbols",
    "CosTxRecord",
    "CosRxResult",
    "CosTransmitter",
    "CosReceiver",
    "ExchangeOutcome",
    "CosLink",
    "FAILURE_CAUSES",
    "MAX_EVENT_POSITIONS",
    "classify_failure",
    "control_group_accuracy",
]

#: Why an exchange succeeded or failed (the ``cause`` of its
#: ``cos.exchange`` event and the label of ``repro_flight_total``):
#:
#: * ``ok`` — CRC clean and every control bit recovered;
#: * ``signal_loss`` — the SIGNAL field was undecodable (nothing
#:   downstream could run);
#: * ``crc_fail`` — the data field failed CRC (EVD could not recover the
#:   erasures/noise);
#: * ``feedback_loss`` — data fine but the control message was declared
#:   lost (faded control subcarriers or interval-decode error);
#: * ``detection_miss`` — data fine, recovery ran, but the recovered
#:   control bits differ from what was embedded (missed/spurious
#:   silences).
FAILURE_CAUSES = ("ok", "signal_loss", "crc_fail", "feedback_loss", "detection_miss")

#: Cap on the silence positions and per-symbol energies one
#: ``cos.exchange`` event carries, bounding its size on long packets.
MAX_EVENT_POSITIONS = 512


def classify_failure(
    signal_ok: bool,
    crc_ok: bool,
    control_sent: int,
    control_ok: bool,
    control_error: Optional[str],
) -> str:
    """Collapse an exchange outcome into one of :data:`FAILURE_CAUSES`."""
    if not signal_ok:
        return "signal_loss"
    if not crc_ok:
        return "crc_fail"
    if control_sent and not control_ok:
        return "feedback_loss" if control_error else "detection_miss"
    return "ok"


def control_group_accuracy(
    sent: np.ndarray, received: np.ndarray, k: int = 4
) -> float:
    """Fraction of k-bit interval groups delivered intact, in order.

    This is the granularity at which the paper reports "detection
    accuracy of control messages": one missed/spurious silence breaks
    the groups after it, not the ones before.  Returns 1.0 when no
    control bits were sent.
    """
    n_groups = sent.size // k
    if n_groups == 0:
        return 1.0
    good = 0
    for g in range(n_groups):
        lo, hi = g * k, (g + 1) * k
        if hi > received.size:
            break
        if np.array_equal(sent[lo:hi], received[lo:hi]):
            good += 1
        else:
            break
    return good / n_groups


def reconstruct_reference_symbols(scrambled_bits: np.ndarray, rate: PhyRate) -> np.ndarray:
    """Re-encode decoded (still-scrambled) bits into ideal symbols.

    This is the paper's post-CRC re-mapping step: once the packet decodes
    cleanly, the transmitted constellation points are known exactly and
    EVM can be computed without a pilot-only approximation.
    """
    coded = puncture(conv_encode(np.asarray(scrambled_bits, dtype=np.uint8)), rate.code_rate)
    interleaved = interleave(coded, rate)
    modulation = get_modulation(rate.modulation)
    return modulation.map_bits(interleaved).reshape(-1, N_DATA_SUBCARRIERS)


# ---------------------------------------------------------------------------
# Transmitter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosTxRecord:
    """What one CoS transmission actually put on the air."""

    frame: TxFrame
    plan: SilencePlan
    allocation: ControlAllocation
    control_subcarriers: List[int]


class CosTransmitter:
    """802.11a transmitter with the CoS power-controller extension."""

    def __init__(
        self,
        controller: Optional[ControlRateController] = None,
        codec: Optional[IntervalCodec] = None,
        control_subcarriers: Sequence[int] = DEFAULT_CONTROL_SUBCARRIERS,
    ):
        self.codec = codec or IntervalCodec()
        self.controller = controller or ControlRateController(codec=self.codec)
        self.control_subcarriers = list(control_subcarriers)
        self._phy = Transmitter()
        self._queue: List[int] = []

    # -- control plane --------------------------------------------------

    def enqueue_control(self, bits: Sequence[int]) -> None:
        """Append control bits to the outgoing queue."""
        self._queue.extend(int(b) & 1 for b in bits)

    @property
    def backlog_bits(self) -> int:
        return len(self._queue)

    def update_control_subcarriers(self, subcarriers: Sequence[int]) -> None:
        """Apply the receiver's subcarrier-selection feedback."""
        subcarriers = sorted(set(int(c) for c in subcarriers))
        if subcarriers:
            self.control_subcarriers = subcarriers

    # -- data plane ------------------------------------------------------

    def build(self, payload: bytes, rate: PhyRate, measured_snr_db: float) -> CosTxRecord:
        """Build one PPDU carrying ``payload`` plus queued control bits."""
        psdu = build_mpdu(payload)
        n_symbols = rate.n_symbols_for(len(psdu))
        allocation = self.controller.allocation(measured_snr_db, n_symbols)

        with span("cos.tx.plan") as sp:
            planner = SilencePlanner(self.control_subcarriers, self.codec)
            offered = np.asarray(
                self._queue[: allocation.max_control_bits], dtype=np.uint8
            )
            plan = planner.plan(offered, n_symbols)
            del self._queue[: plan.embedded_bits.size]
            sp.set(n_silences=plan.n_silences,
                   embedded_bits=int(plan.embedded_bits.size))

        frame = self._phy.transmit(psdu, rate, silence_mask=plan.mask)

        return CosTxRecord(
            frame=frame,
            plan=plan,
            allocation=allocation,
            control_subcarriers=list(self.control_subcarriers),
        )


# ---------------------------------------------------------------------------
# Receiver
# ---------------------------------------------------------------------------


@dataclass
class CosRxResult:
    """Everything a CoS receiver extracts from one PPDU."""

    phy: RxResult
    detection: Optional[DetectionReport]
    control_bits: np.ndarray
    control_error: Optional[str]
    evms: Optional[np.ndarray]
    selection: Optional[SelectionResult]

    @property
    def data_ok(self) -> bool:
        return self.phy.ok

    @property
    def payload(self) -> bytes:
        return self.phy.mpdu.payload


class CosReceiver:
    """802.11a receiver with energy detection, EVD, and EVM feedback."""

    def __init__(
        self,
        detector: Optional[EnergyDetector] = None,
        selector: Optional[SubcarrierSelector] = None,
        codec: Optional[IntervalCodec] = None,
        control_subcarriers: Sequence[int] = DEFAULT_CONTROL_SUBCARRIERS,
        predictor: Optional[EvmPredictor] = None,
        phy_receiver: Optional[Receiver] = None,
    ):
        self.detector = detector or EnergyDetector()
        self.selector = selector or SubcarrierSelector()
        self.codec = codec or IntervalCodec()
        self.control_subcarriers = list(control_subcarriers)
        self.predictor = predictor
        self._phy = phy_receiver or Receiver()

    def update_control_subcarriers(self, subcarriers: Sequence[int]) -> None:
        subcarriers = sorted(set(int(c) for c in subcarriers))
        if subcarriers:
            self.control_subcarriers = subcarriers

    def receive(
        self,
        waveform: np.ndarray,
        next_target_count: Optional[int] = None,
    ) -> CosRxResult:
        """Process one PPDU: detect silences, EVD-decode, extract feedback.

        ``next_target_count`` is the control-subcarrier count the rate
        controller wants for the *next* packet (None keeps the threshold
        rule of §III-D).
        """
        obs = self._phy.observe(waveform)
        if obs is None:
            return _undecodable(
                RxResult(mpdu=parse_mpdu(None), signal=None, observation=None)
            )
        if obs.signal is None:
            return _undecodable(self._phy.decode(obs))
        detection, faded = self._detect(obs)
        phy_result = self._phy.decode(obs, erasure_mask=detection.mask)
        return self._extract(obs, detection, faded, phy_result, next_target_count)

    def receive_many(self, waveforms: Sequence[np.ndarray]) -> List[CosRxResult]:
        """Process a batch of PPDUs through the stacked receiver path.

        One :meth:`Receiver.observe_many`, energy detection per packet,
        one :meth:`Receiver.decode_many` with the detection masks as
        erasures, then control recovery and EVM feedback per packet.
        Entry ``i`` equals ``receive(waveforms[i])`` field by field; with
        a predictor attached, its state advances in batch order.
        """
        observations = self._phy.observe_many(waveforms)
        detected = [
            self._detect(obs) if obs is not None and obs.signal is not None
            else None
            for obs in observations
        ]
        results = self._phy.decode_many(
            observations, [d[0].mask if d else None for d in detected]
        )
        return [
            self._extract(obs, *d, result, None) if d else _undecodable(result)
            for obs, d, result in zip(observations, detected, results)
        ]

    def _detect(self, obs: FrameObservation) -> Tuple[DetectionReport, List[int]]:
        """Silence detection, plus the control subcarriers too faded for it.

        A control subcarrier whose *active* symbols sit near the detection
        threshold cannot host silence signalling — bits "recovered" through
        it would be garbage, so a non-empty faded list means the control
        message is lost.  The detected mask still serves as erasure input
        for data decoding (the safe direction).
        """
        modulation = get_modulation(obs.signal.rate.modulation)
        h_gains = np.abs(obs.h_data) ** 2
        detection = self.detector.detect(
            obs.raw_data_grid,
            self.control_subcarriers,
            obs.noise_var,
            h_gains=h_gains,
            min_symbol_energy=modulation.min_symbol_energy,
        )
        floor = self.detector.threshold_for(obs.noise_var)
        faded = [
            c
            for c in self.control_subcarriers
            if modulation.min_symbol_energy * h_gains[c] < 2.0 * floor
        ]
        return detection, faded

    def _extract(
        self,
        obs: FrameObservation,
        detection: DetectionReport,
        faded: List[int],
        phy_result: RxResult,
        next_target_count: Optional[int],
    ) -> CosRxResult:
        """Recover the control bits; after a clean CRC, EVM and selection."""
        with span("cos.rx.recover") as sp:
            control_error: Optional[str] = None
            if faded:
                control_bits = np.zeros(0, dtype=np.uint8)
                control_error = (
                    f"control subcarriers {faded} too faded for "
                    "silence detection"
                )
            else:
                planner = SilencePlanner(self.control_subcarriers, self.codec)
                try:
                    control_bits = planner.recover_bits(detection.mask)
                except ValueError as exc:
                    control_bits = np.zeros(0, dtype=np.uint8)
                    control_error = str(exc)
            sp.set(recovered_bits=int(control_bits.size),
                   error=control_error)

        evms: Optional[np.ndarray] = None
        selection: Optional[SelectionResult] = None
        if phy_result.ok and phy_result.decoded is not None:
            with span("cos.rx.evm") as sp:
                rate = obs.signal.rate
                modulation = get_modulation(rate.modulation)
                reference = reconstruct_reference_symbols(
                    phy_result.decoded.scrambled_bits, rate
                )
                evms = per_subcarrier_evm(
                    obs.eq_data_grid[: reference.shape[0]],
                    reference,
                    modulation,
                    exclude_mask=detection.mask[: reference.shape[0]],
                )
                selection_evms = (
                    self.predictor.update(evms) if self.predictor is not None else evms
                )
                selection = self.selector.select(
                    selection_evms, modulation, target_count=next_target_count
                )
                sp.set(n_selected=len(selection.subcarriers))

        return CosRxResult(
            phy=phy_result,
            detection=detection,
            control_bits=control_bits,
            control_error=control_error,
            evms=evms,
            selection=selection,
        )


def _undecodable(phy_result: RxResult) -> CosRxResult:
    """The CoS result of a PPDU whose SIGNAL field did not decode."""
    return CosRxResult(
        phy=phy_result,
        detection=None,
        control_bits=np.zeros(0, dtype=np.uint8),
        control_error="signal field undecodable",
        evms=None,
        selection=None,
    )


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


@dataclass
class ExchangeOutcome:
    """Per-packet results of :meth:`CosLink.exchange`."""

    data_ok: bool
    control_sent: np.ndarray
    control_received: np.ndarray
    rate_mbps: int
    measured_snr_db: float
    actual_snr_db: float
    n_silences: int
    detection_fp: float
    detection_fn: float
    control_error: Optional[str] = None
    evms: Optional[np.ndarray] = None

    @property
    def control_ok(self) -> bool:
        """True when every embedded control bit was recovered exactly."""
        return (
            self.control_sent.size == self.control_received.size
            and bool(np.all(self.control_sent == self.control_received))
        )

    def control_group_accuracy(self, k: int = 4) -> float:
        """See :func:`control_group_accuracy` (module-level helper)."""
        return control_group_accuracy(self.control_sent, self.control_received, k)


@dataclass
class LinkStats:
    """Aggregates over a :meth:`CosLink.run`."""

    outcomes: List[ExchangeOutcome] = field(default_factory=list)

    @property
    def n_packets(self) -> int:
        return len(self.outcomes)

    @property
    def prr(self) -> float:
        """Packet reception rate (the paper targets >= 99.3 %)."""
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.data_ok for o in self.outcomes]))

    @property
    def control_accuracy(self) -> float:
        """Fraction of packets whose control message arrived intact."""
        with_control = [o for o in self.outcomes if o.control_sent.size > 0]
        if not with_control:
            return 1.0
        return float(np.mean([o.control_ok for o in with_control]))

    @property
    def control_bits_delivered(self) -> int:
        return int(sum(o.control_sent.size for o in self.outcomes if o.control_ok))

    @property
    def message_accuracy(self) -> float:
        """Mean per-group control accuracy (the paper's headline metric)."""
        with_control = [o for o in self.outcomes if o.control_sent.size > 0]
        if not with_control:
            return 1.0
        return float(np.mean([o.control_group_accuracy() for o in with_control]))

    @property
    def total_silences(self) -> int:
        return int(sum(o.n_silences for o in self.outcomes))


class CosLink:
    """A full closed-loop CoS session between two stations.

    Parameters
    ----------
    channel:
        The :class:`IndoorChannel` between the stations.
    adapter:
        Data-rate adaptation (defaults to the paper's SNR thresholds).
    controller:
        Control-message rate controller (shared with the transmitter).
    inter_packet_gap_s:
        Channel evolution applied between packets (frame aggregation in
        the paper keeps this small).
    """

    def __init__(
        self,
        channel: IndoorChannel,
        adapter: Optional[RateAdapter] = None,
        controller: Optional[ControlRateController] = None,
        inter_packet_gap_s: float = 1e-3,
        codec: Optional[IntervalCodec] = None,
    ):
        self.channel = channel
        self.adapter = adapter or RateAdapter()
        self.codec = codec or IntervalCodec()
        self.controller = controller or ControlRateController(codec=self.codec)
        self.inter_packet_gap_s = inter_packet_gap_s
        self.tx = CosTransmitter(controller=self.controller, codec=self.codec)
        self.rx = CosReceiver(codec=self.codec)

    def exchange(self, payload: bytes, control_bits: Sequence[int]) -> ExchangeOutcome:
        """Send one data packet carrying ``control_bits`` over the channel.

        The exchange is fully instrumented: every stage runs under a
        :func:`repro.obs.trace.span` (root span ``cos.exchange``), and
        when a tracer is active the complete decision chain is emitted as
        one ``cos.exchange`` point event (see :meth:`_emit_exchange`).
        """
        with span("cos.exchange") as root:
            with span("cos.rate_select"):
                measured = self.channel.measured_snr_db
                actual = self.channel.actual_snr_db
                rate = self.adapter.select(measured)
            root.set(rate_mbps=rate.mbps, measured_snr_db=measured)

            with span("cos.tx.build"):
                self.tx.enqueue_control(control_bits)
                record = self.tx.build(payload, rate, measured)
            # channel.transmit carries its own span (direct child here).
            rx_waveform = self.channel.transmit(record.frame.waveform)

            # The next packet's budget is this one's: ``build`` asked the
            # shared controller at the same SNR and symbol count, and its
            # state only moves in ``on_data_result`` below.
            with span("cos.rx.receive"):
                result = self.rx.receive(
                    rx_waveform,
                    next_target_count=record.allocation.n_control_subcarriers,
                )

            with span("cos.feedback"):
                # Detection accuracy vs ground truth (available in
                # simulation).  A mis-decoded SIGNAL field can leave the
                # detection grid with a different symbol count than what
                # was sent; every silence in the unobserved region counts
                # as missed.
                if (
                    result.detection is not None
                    and result.detection.mask.shape == record.frame.silence_mask.shape
                ):
                    fp, fn = EnergyDetector.confusion(
                        result.detection.mask,
                        record.frame.silence_mask,
                        record.control_subcarriers,
                    )
                else:
                    fp, fn = 0.0, (1.0 if record.plan.n_silences else 0.0)

                # Closed-loop bookkeeping: rate fallback and subcarrier
                # feedback only flow when the data packet (and hence the
                # ACK) succeeded.
                fallback_before = self.controller.in_fallback
                self.controller.on_data_result(result.data_ok)
                fallback_after = self.controller.in_fallback
                if result.data_ok and result.selection is not None:
                    self.tx.update_control_subcarriers(result.selection.subcarriers)
                    self.rx.update_control_subcarriers(result.selection.subcarriers)

                if self.rx.predictor is not None:
                    self.rx.predictor.advance(self.inter_packet_gap_s)
            self.channel.evolve(self.inter_packet_gap_s)

            outcome = ExchangeOutcome(
                data_ok=result.data_ok,
                control_sent=record.plan.embedded_bits,
                control_received=result.control_bits,
                rate_mbps=rate.mbps,
                measured_snr_db=measured,
                actual_snr_db=actual,
                n_silences=record.plan.n_silences,
                detection_fp=fp,
                detection_fn=fn,
                control_error=result.control_error,
                evms=result.evms,
            )
            with span("cos.flight"):
                self._emit_exchange(outcome, record, result,
                                    fallback_before, fallback_after)
            return outcome

    def _emit_exchange(
        self,
        outcome: ExchangeOutcome,
        record: CosTxRecord,
        result: CosRxResult,
        fallback_before: bool,
        fallback_after: bool,
    ) -> None:
        """Emit the ``cos.exchange`` point event (a no-op untraced).

        The ``cos.exchange`` point event carries the whole decision chain:
        the selected rate and the SNR gap it left, the control-rate
        allocation, where silences were placed, what the energy detector
        saw, how many bit metrics EVD zeroed, the CRC outcome, the
        EVM-selected subcarriers fed back, the fallback transition, and
        its :data:`FAILURE_CAUSES` ``cause``.
        """
        if current_tracer() is None:
            return
        if fallback_after != fallback_before:
            transition: Optional[str] = "enter" if fallback_after else "exit"
        else:
            transition = None
        cap = MAX_EVENT_POSITIONS
        silence_mask = record.frame.silence_mask
        if silence_mask is not None:
            positions = np.argwhere(np.asarray(silence_mask, dtype=bool))
            n_silences = int(positions.shape[0])
            positions = positions[:cap].tolist()
        else:
            positions, n_silences = [], 0
        detection = result.detection
        nan = float("nan")
        threshold = energy_min = energy_mean = energy_max = nan
        symbol_min: List[float] = []
        if detection is not None:
            threshold = float(detection.threshold)
            energies = np.asarray(detection.energies, dtype=np.float64)
            if energies.size:
                energy_min = float(energies.min())
                energy_mean = float(energies.mean())
                energy_max = float(energies.max())
                symbol_min = energies.min(axis=1)[:cap].tolist()
        signal_ok = result.phy.signal is not None
        control_sent = int(outcome.control_sent.size)
        cause = classify_failure(signal_ok, outcome.data_ok, control_sent,
                                 outcome.control_ok, outcome.control_error)
        allocation = record.allocation
        event(
            "cos.exchange",
            cause=cause,
            rate_mbps=int(outcome.rate_mbps),
            measured_snr_db=float(outcome.measured_snr_db),
            actual_snr_db=float(outcome.actual_snr_db),
            snr_gap_db=float(outcome.actual_snr_db
                             - self.adapter.min_required_snr_db(record.frame.rate)),
            in_fallback=bool(fallback_after),
            fallback_transition=transition,
            n_control_subcarriers=int(allocation.n_control_subcarriers),
            max_control_bits=int(allocation.max_control_bits),
            target_silences=int(allocation.target_silences),
            control_subcarriers=[int(c) for c in record.control_subcarriers],
            n_silences=n_silences,
            silence_positions=positions,
            detection_threshold=threshold,
            energy_min=energy_min,
            energy_mean=energy_mean,
            energy_max=energy_max,
            symbol_min_energy=symbol_min,
            evd_erasures=(int(np.count_nonzero(detection.mask))
                          if detection is not None else 0),
            signal_ok=signal_ok,
            crc_ok=bool(outcome.data_ok),
            control_sent_bits=control_sent,
            control_received_bits=int(outcome.control_received.size),
            control_ok=bool(outcome.control_ok),
            control_error=outcome.control_error,
            detection_fp=float(outcome.detection_fp),
            detection_fn=float(outcome.detection_fn),
            evm_selected_subcarriers=(
                [int(c) for c in result.selection.subcarriers]
                if result.selection is not None else []
            ),
        )

    def run(
        self,
        n_packets: int,
        payload: bytes,
        rng: Optional[np.random.Generator] = None,
    ) -> LinkStats:
        """Exchange ``n_packets`` packets with random control messages."""
        rng = rng or np.random.default_rng(0)
        stats = LinkStats()
        for _ in range(n_packets):
            bits = rng.integers(0, 2, size=self.codec.k * 8, dtype=np.uint8)
            stats.outcomes.append(self.exchange(payload, bits))
        return stats
