"""The :class:`RateController` protocol and the controller registry.

A rate controller owns the per-flow rate decision of the network
simulator.  :class:`~repro.net.control.ControlPlane` drives it through
three hooks, all keyed by the data flow ``(src, dst)``:

* :meth:`RateController.select_rate` — called by the MAC for every data
  transmission attempt (``retries`` counts the failed attempts of the
  head frame so far, letting samplers walk a retry chain);
* :meth:`RateController.on_tx_result` — called at TX completion (ACK
  received, or ACK timeout) with the rate the attempt actually used —
  the only signal the loss-driven samplers (Minstrel, SampleRate) get;
* :meth:`RateController.on_feedback` — called when a SINR feedback
  message reaches the flow's sender through the control plane (explicit
  frame or CoS silence), the signal the SNR-threshold family runs on.

Two class attributes tell the simulator how to provision the control
plane around a controller:

* ``transport`` — ``"cos"`` / ``"explicit"`` pins the scenario's control
  mode (the Cos/Explicit feedback controllers exist exactly to pin it);
  ``None`` keeps whatever the scenario configured.
* ``uses_feedback`` — ``False`` suppresses feedback generation entirely:
  loss-driven samplers pay *zero* control overhead by construction,
  which is the honest baseline the paper's "free control" claim must
  beat on adaptation quality, not on airtime.

Any randomness a controller needs comes from the ``rng`` passed at
construction — in :mod:`repro.net`, the controller instance's own
sampling stream, which has a Generator's ``random()`` and
``integers()`` and nothing else (:class:`repro.utils.rng.OwnerStream`)
— never from module-level RNGs or the wall clock, so
serial and process-pool sweeps stay bit-for-bit identical.

New controllers register by name::

    @register
    class MyController(RateController):
        name = "my-controller"
        ...

and are then constructible via ``ScenarioSpec(controller="my-controller")``,
``repro net run --controller`` and ``repro net compare``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.mac.dcf import BASE_RATE_MBPS
from repro.phy.params import RATE_TABLE

__all__ = [
    "CONTROLLERS",
    "RateController",
    "available_controllers",
    "make_controller",
    "register",
]


class RateController:
    """Base class: per-flow state plus the three control-plane hooks."""

    #: Registry key (subclasses override).
    name: str = "base"
    #: ``"cos"`` / ``"explicit"`` pins the control mode; ``None`` inherits.
    transport: Optional[str] = None
    #: ``False`` = never generate SINR feedback messages (loss-driven).
    uses_feedback: bool = True

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 rates: Optional[Tuple[int, ...]] = None) -> None:
        self.rng = rng
        self.rates: Tuple[int, ...] = tuple(sorted(rates or RATE_TABLE))
        if not self.rates:
            raise ValueError("controller needs at least one rate")
        for mbps in self.rates:
            if mbps not in RATE_TABLE:
                raise ValueError(f"{mbps} Mbps is not an 802.11a rate")

    # -- the protocol ---------------------------------------------------

    def select_rate(self, src: str, dst: str, retries: int = 0) -> int:
        """The rate (Mbps) flow ``src -> dst`` should transmit at now."""
        return BASE_RATE_MBPS

    def on_tx_result(self, src: str, dst: str, rate_mbps: int, ok: bool,
                     retries: int, payload_octets: int = 0) -> None:
        """One data TX attempt of flow ``src -> dst`` completed.

        ``ok`` is the frame fate (ACKed vs ACK timeout), ``rate_mbps``
        the rate that attempt used, ``retries`` the failed-attempt count
        of the frame so far.
        """

    def on_feedback(self, src: str, dst: str, sinr_db: float) -> None:
        """A SINR feedback message for flow ``src -> dst`` was delivered."""


#: name -> controller class; populated by :func:`register` at import time.
CONTROLLERS: Dict[str, Type[RateController]] = {}


def register(cls: Type[RateController]) -> Type[RateController]:
    """Class decorator adding a controller to :data:`CONTROLLERS`."""
    if not cls.name or cls.name == "base":
        raise ValueError("controller classes must set a unique 'name'")
    if cls.name in CONTROLLERS:
        raise ValueError(f"controller {cls.name!r} already registered")
    if cls.transport not in (None, "cos", "explicit"):
        raise ValueError(f"bad transport {cls.transport!r} on {cls.name!r}")
    CONTROLLERS[cls.name] = cls
    return cls


def available_controllers() -> Tuple[str, ...]:
    """Registered controller names, sorted (the CLI/help vocabulary)."""
    return tuple(sorted(CONTROLLERS))


def make_controller(name: str, rng: Optional[np.random.Generator] = None,
                    **kwargs) -> RateController:
    """Instantiate a registered controller by name.

    Raises :class:`ValueError` naming the available set on an unknown
    name — the one error message every surface (spec validation, CLI,
    env fallback) relays.
    """
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown rate controller {name!r}; available: "
            f"{', '.join(available_controllers())}"
        ) from None
    return cls(rng=rng, **kwargs)
