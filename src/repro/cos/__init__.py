"""CoS — the paper's contribution: a free control channel in silence symbols.

Components mirror Fig. 8's architecture:

* :class:`~repro.cos.intervals.IntervalCodec` — control bits <-> intervals;
* :class:`~repro.cos.silence.SilencePlanner` — the power controller;
* :class:`~repro.cos.energy.EnergyDetector` — symbol-level silence location;
* :mod:`repro.cos.evm` — per-subcarrier EVM (eq. (1)) and ∇EVM (eq. (2));
* :class:`~repro.cos.selection.SubcarrierSelector` — weak-subcarrier choice
  plus the one-symbol feedback vector;
* :class:`~repro.cos.rate_control.ControlRateController` — SNR-indexed
  control-message rate with failure fallback;
* :class:`~repro.cos.link.CosLink` — the closed loop.
"""

from repro.cos.bitmap_coding import BitmapPlanner
from repro.cos.energy import DetectionReport, EnergyDetector
from repro.cos.evm import error_vector_magnitudes, nabla_evm, per_subcarrier_evm
from repro.cos.flashback import FlashbackDetector, FlashbackTransmitter, FlashPlan
from repro.cos.intervals import IntervalCodec
from repro.cos.link import (
    CosLink,
    CosReceiver,
    CosRxResult,
    CosTransmitter,
    CosTxRecord,
    ExchangeOutcome,
    LinkStats,
    reconstruct_reference_symbols,
)
from repro.cos.ml_detection import MlSilenceDetector
from repro.cos.predictor import EvmPredictor
from repro.cos.messages import (
    AckMessage,
    AirtimeGrant,
    ControlMessage,
    LoadReport,
    RateRequest,
    decode_message,
    encode_message,
)
from repro.cos.rate_control import (
    DEFAULT_RM_TABLE,
    ControlAllocation,
    ControlRateController,
    ControlRateTable,
)
from repro.cos.selection import FeedbackCodec, SelectionResult, SubcarrierSelector
from repro.cos.stream import ReliableControlReceiver, ReliableControlSender
from repro.cos.silence import DEFAULT_CONTROL_SUBCARRIERS, SilencePlan, SilencePlanner
from repro.cos.visualize import render_silence_grid

__all__ = [
    "BitmapPlanner",
    "DetectionReport",
    "EnergyDetector",
    "error_vector_magnitudes",
    "nabla_evm",
    "per_subcarrier_evm",
    "FlashbackDetector",
    "FlashbackTransmitter",
    "FlashPlan",
    "IntervalCodec",
    "MlSilenceDetector",
    "EvmPredictor",
    "CosLink",
    "CosReceiver",
    "CosRxResult",
    "CosTransmitter",
    "CosTxRecord",
    "ExchangeOutcome",
    "LinkStats",
    "reconstruct_reference_symbols",
    "AckMessage",
    "AirtimeGrant",
    "ControlMessage",
    "LoadReport",
    "RateRequest",
    "decode_message",
    "encode_message",
    "DEFAULT_RM_TABLE",
    "ControlAllocation",
    "ControlRateController",
    "ControlRateTable",
    "FeedbackCodec",
    "SelectionResult",
    "SubcarrierSelector",
    "DEFAULT_CONTROL_SUBCARRIERS",
    "SilencePlan",
    "SilencePlanner",
    "ReliableControlReceiver",
    "ReliableControlSender",
    "render_silence_grid",
]
