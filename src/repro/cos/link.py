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
subcarriers for the next packet (§III-D).

``CosLink`` closes the loop over an :class:`~repro.channel.IndoorChannel`:
NIC-SNR-driven data-rate adaptation, subcarrier-selection feedback (only
delivered when the data packet succeeded, as in the paper), control-rate
fallback on failure, and walking-speed channel evolution between packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.link import IndoorChannel
from repro.cos.energy import DetectionReport, EnergyDetector
from repro.obs.flight import current_recorder
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.cos.evm import per_subcarrier_evm
from repro.cos.intervals import IntervalCodec
from repro.cos.predictor import EvmPredictor
from repro.cos.rate_control import ControlAllocation, ControlRateController
from repro.cos.selection import SelectionResult, SubcarrierSelector
from repro.cos.silence import DEFAULT_CONTROL_SUBCARRIERS, SilencePlan, SilencePlanner
from repro.phy.convcode import conv_encode, puncture
from repro.phy.frames import build_mpdu, parse_mpdu
from repro.phy.interleaver import interleave
from repro.phy.modulation import Modulation, get_modulation
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
    "OperatingPoint",
    "control_group_accuracy",
    "measure_operating_point",
]


def _faded_control_subcarriers(
    h_gains: np.ndarray,
    noise_var: float,
    control_subcarriers: Sequence[int],
    detector: EnergyDetector,
    modulation: Modulation,
) -> List[int]:
    """Control subcarriers too faded for silence detection.

    A control subcarrier whose *active* symbols sit near the detection
    threshold cannot host silence signalling — bits "recovered" through it
    would be garbage, so a non-empty result means the control message is
    lost.  The detected mask still serves as erasure input for data
    decoding (the safe direction).
    """
    floor = detector.threshold_for(noise_var)
    return [
        c
        for c in control_subcarriers
        if modulation.min_symbol_energy * h_gains[c] < 2.0 * floor
    ]


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

        registry = get_registry()
        registry.counter(
            "repro_tx_packets_total", help="CoS PPDUs built."
        ).inc()
        registry.counter(
            "repro_tx_silences_total", help="Silence symbols inserted."
        ).inc(plan.n_silences)
        registry.counter(
            "repro_tx_control_bits_total", help="Control bits embedded."
        ).inc(int(plan.embedded_bits.size))

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
        if obs is None or obs.signal is None:
            if obs is not None:
                phy_result = self._phy.decode(obs)
            else:
                phy_result = RxResult(mpdu=parse_mpdu(None), signal=None, observation=None)
            return CosRxResult(
                phy=phy_result,
                detection=None,
                control_bits=np.zeros(0, dtype=np.uint8),
                control_error="signal field undecodable",
                evms=None,
                selection=None,
            )

        modulation = get_modulation(obs.signal.rate.modulation)
        h_gains = np.abs(obs.h_data) ** 2
        detection = self.detector.detect(
            obs.raw_data_grid,
            self.control_subcarriers,
            obs.noise_var,
            h_gains=h_gains,
            min_symbol_energy=modulation.min_symbol_energy,
        )
        phy_result = self._phy.decode(obs, erasure_mask=detection.mask)

        with span("cos.rx.recover") as sp:
            planner = SilencePlanner(self.control_subcarriers, self.codec)
            control_error: Optional[str] = None
            undetectable = _faded_control_subcarriers(
                h_gains,
                obs.noise_var,
                self.control_subcarriers,
                self.detector,
                modulation,
            )
            if undetectable:
                control_bits = np.zeros(0, dtype=np.uint8)
                control_error = (
                    f"control subcarriers {undetectable} too faded for "
                    "silence detection"
                )
            else:
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
                reference = reconstruct_reference_symbols(
                    phy_result.decoded.scrambled_bits, rate
                )
                evms = per_subcarrier_evm(
                    obs.eq_data_grid[: reference.shape[0]],
                    reference,
                    get_modulation(rate.modulation),
                    exclude_mask=detection.mask[: reference.shape[0]],
                )
                selection_evms = (
                    self.predictor.update(evms) if self.predictor is not None else evms
                )
                selection = self.selector.select(
                    selection_evms,
                    get_modulation(rate.modulation),
                    target_count=next_target_count,
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
        when a flight recorder is configured the complete decision chain
        is emitted as one :class:`repro.obs.flight.FlightRecord`.
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

            next_alloc = self.controller.allocation(
                measured, record.frame.n_data_symbols
            )
            with span("cos.rx.receive"):
                result = self.rx.receive(
                    rx_waveform, next_target_count=next_alloc.n_control_subcarriers
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
                self._account(outcome, record, result,
                              fallback_before, fallback_after)
            return outcome

    def _account(
        self,
        outcome: ExchangeOutcome,
        record: CosTxRecord,
        result: CosRxResult,
        fallback_before: bool,
        fallback_after: bool,
    ) -> None:
        """Update the metrics registry and emit the flight record."""
        registry = get_registry()
        registry.counter(
            "repro_exchanges_total", help="Closed-loop CoS exchanges."
        ).inc()
        if not outcome.data_ok:
            registry.counter(
                "repro_data_crc_fail_total", help="Exchanges whose data CRC failed."
            ).inc()
        if outcome.control_ok:
            registry.counter(
                "repro_control_bits_delivered_total",
                help="Control bits recovered exactly.",
            ).inc(int(outcome.control_sent.size))

        recorder = current_recorder()
        if recorder is None:
            return
        if fallback_after != fallback_before:
            transition: Optional[str] = "enter" if fallback_after else "exit"
        else:
            transition = None
        evd_erasures = (
            int(np.count_nonzero(result.detection.mask))
            if result.detection is not None
            else 0
        )
        recorder.record(
            rate_mbps=outcome.rate_mbps,
            measured_snr_db=outcome.measured_snr_db,
            actual_snr_db=outcome.actual_snr_db,
            min_required_snr_db=self.adapter.min_required_snr_db(
                record.frame.rate
            ),
            in_fallback=fallback_after,
            fallback_transition=transition,
            allocation=record.allocation,
            control_subcarriers=record.control_subcarriers,
            silence_mask=record.frame.silence_mask,
            detection=result.detection,
            evd_erasures=evd_erasures,
            signal_ok=result.phy.signal is not None,
            crc_ok=outcome.data_ok,
            control_sent=outcome.control_sent,
            control_received=outcome.control_received,
            control_ok=outcome.control_ok,
            control_error=outcome.control_error,
            detection_fp=outcome.detection_fp,
            detection_fn=outcome.detection_fn,
            evm_selected=(
                result.selection.subcarriers if result.selection is not None else None
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


# ---------------------------------------------------------------------------
# Open-loop operating-point measurement (batched)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """Open-loop link measurement at one (channel, rate) point."""

    n_packets: int
    prr: float
    message_accuracy: float
    n_control_packets: int


def measure_operating_point(
    channel: IndoorChannel,
    rate: PhyRate,
    n_packets: int,
    payload: bytes = bytes(256),
    control_bits_per_packet: int = 0,
    codec: Optional[IntervalCodec] = None,
    control_subcarriers: Sequence[int] = DEFAULT_CONTROL_SUBCARRIERS,
    select_subcarriers: bool = True,
    gap_s: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
) -> OperatingPoint:
    """Measure PRR (and optionally CoS control accuracy) at a fixed point.

    Unlike :meth:`CosLink.exchange` this probe is **open-loop**: the rate
    and control subcarriers stay fixed, nothing feeds back, and the only
    channel coupling between packets is :meth:`IndoorChannel.evolve` —
    which runs entirely during transmission.  That independence is what
    lets the whole probe batch flow through the stacked receiver path:
    all ``n_packets`` waveforms are synthesised first, then observed in
    one :meth:`Receiver.observe_many`, energy-detected per packet, and
    decoded in one :meth:`Receiver.decode_many` (batched demap + Viterbi).
    This is the probe engine behind :mod:`repro.phy.surrogate`'s PRR
    sweeps.

    With ``control_bits_per_packet = 0`` the packets are silence-free and
    ``message_accuracy`` is vacuously 1.0; otherwise each packet embeds
    that many random control bits (a multiple of ``codec.k``) and the
    accuracy is the mean per-packet :func:`control_group_accuracy`.  When
    ``select_subcarriers`` is set (the default) a silence-free lead-in
    packet runs §III-D subcarrier selection once, standing in for the
    converged state a closed-loop session reaches through feedback —
    without it the fixed default subcarriers may sit in a fade, where
    :func:`_faded_control_subcarriers` (the detectability guard
    :class:`CosReceiver` applies too) declares every control message lost.
    """
    codec = codec or IntervalCodec()
    if control_bits_per_packet % codec.k != 0:
        raise ValueError(
            f"control_bits_per_packet={control_bits_per_packet} is not a "
            f"multiple of codec.k={codec.k}"
        )
    tx = Transmitter()
    rx = Receiver()
    detector = EnergyDetector()
    rng = rng or np.random.default_rng(0)
    psdu = build_mpdu(payload)
    n_symbols = rate.n_symbols_for(len(psdu))
    modulation = get_modulation(rate.modulation)
    control_subcarriers = list(control_subcarriers)

    if control_bits_per_packet and select_subcarriers:
        lead = rx.receive(channel.transmit(tx.transmit(psdu, rate).waveform))
        channel.evolve(gap_s)
        if lead.ok and lead.decoded is not None and lead.observation is not None:
            reference = reconstruct_reference_symbols(
                lead.decoded.scrambled_bits, rate
            )
            evms = per_subcarrier_evm(
                lead.observation.eq_data_grid[: reference.shape[0]],
                reference,
                modulation,
            )
            selection = SubcarrierSelector().select(
                evms, modulation, target_count=len(control_subcarriers)
            )
            if selection.subcarriers:
                control_subcarriers = list(selection.subcarriers)

    planner = SilencePlanner(control_subcarriers, codec)
    waves: List[np.ndarray] = []
    sent_bits: List[np.ndarray] = []
    for _ in range(n_packets):
        if control_bits_per_packet:
            bits = rng.integers(
                0, 2, size=control_bits_per_packet, dtype=np.uint8
            )
            plan = planner.plan(bits, n_symbols)
            frame = tx.transmit(psdu, rate, silence_mask=plan.mask)
            sent_bits.append(plan.embedded_bits)
        else:
            frame = tx.transmit(psdu, rate)
            sent_bits.append(np.zeros(0, dtype=np.uint8))
        waves.append(channel.transmit(frame.waveform))
        channel.evolve(gap_s)

    observations = rx.observe_many(waves)
    masks: List[Optional[np.ndarray]] = []
    control_lost: List[bool] = []
    for obs in observations:
        if obs is None or obs.signal is None:
            masks.append(None)
            control_lost.append(True)
            continue
        h_gains = np.abs(obs.h_data) ** 2
        report = detector.detect(
            obs.raw_data_grid,
            control_subcarriers,
            obs.noise_var,
            h_gains=h_gains,
            min_symbol_energy=modulation.min_symbol_energy,
        )
        masks.append(report.mask)
        faded = _faded_control_subcarriers(
            h_gains, obs.noise_var, control_subcarriers, detector, modulation
        )
        control_lost.append(bool(faded))
    results = rx.decode_many(observations, masks)

    accuracies: List[float] = []
    for bits, mask, lost in zip(sent_bits, masks, control_lost):
        if bits.size == 0:
            continue
        recovered = np.zeros(0, dtype=np.uint8)
        if mask is not None and not lost:
            try:
                recovered = planner.recover_bits(mask)
            except ValueError:
                pass
        accuracies.append(control_group_accuracy(bits, recovered, codec.k))

    prr = float(np.mean([r.ok for r in results])) if results else 0.0
    accuracy = float(np.mean(accuracies)) if accuracies else 1.0
    return OperatingPoint(
        n_packets=n_packets,
        prr=prr,
        message_accuracy=accuracy,
        n_control_packets=len(accuracies),
    )
