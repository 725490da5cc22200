"""``repro.ratectl`` — pluggable MAC-layer rate control.

The paper compares CoS feedback only against explicit control frames;
real 802.11 stacks run probabilistic samplers that need *no* feedback at
all ("MAC-Layer Rate Control for 802.11 Networks: Lessons Learned",
PAPERS.md).  This package makes the rate decision a first-class,
swappable policy so the comparison is honest:

====================  =========  =============  ==========================
controller            transport  feedback?      signal
====================  =========  =============  ==========================
``snr-threshold``     inherited  yes            receiver-reported SINR
``cos-feedback``      cos        yes            SINR over CoS silences
``explicit-feedback`` explicit   yes            SINR over control frames
``minstrel``          —          no             frame fates (EWMA + dice)
``samplerate``        —          no             frame fates (avg tx time)
====================  =========  =============  ==========================

:class:`RateController` defines the protocol (``select_rate`` /
``on_tx_result`` / ``on_feedback``); :mod:`repro.net` drives it from the
MAC's TX-completion path and the control plane's feedback delivery.
Scenarios choose a controller via ``ScenarioSpec(controller=...)``, the
CLI via ``repro net run --controller`` and ``repro net compare``.

:mod:`repro.ratectl.staircase` holds the SNR-threshold measurement core.
"""

from repro.ratectl.base import (
    CONTROLLERS,
    RateController,
    available_controllers,
    make_controller,
    register,
)
from repro.ratectl.staircase import (
    DEFAULT_THRESHOLDS,
    RateAdapter,
    min_required_snr_db,
    select_rate,
)
from repro.ratectl.snr import (
    CosFeedbackController,
    ExplicitFeedbackController,
    SnrThresholdController,
)
from repro.ratectl.minstrel import MinstrelController
from repro.ratectl.samplerate import SampleRateController
from repro.ratectl.compare import (
    COMPARISON_HEADERS,
    CONTROLLER_MATRIX,
    SCENARIO_LIBRARY,
    compare_controllers,
    comparison_rows,
)

__all__ = [
    "COMPARISON_HEADERS",
    "CONTROLLERS",
    "CONTROLLER_MATRIX",
    "SCENARIO_LIBRARY",
    "RateController",
    "available_controllers",
    "make_controller",
    "register",
    "DEFAULT_THRESHOLDS",
    "RateAdapter",
    "min_required_snr_db",
    "select_rate",
    "SnrThresholdController",
    "CosFeedbackController",
    "ExplicitFeedbackController",
    "MinstrelController",
    "SampleRateController",
    "compare_controllers",
    "comparison_rows",
]
