"""Temporal channel evolution at walking speed (Gauss–Markov / Jakes).

The paper's mobile traces move the receiver at ≈ 3.4 mph (1.52 m/s); at a
2.4 GHz carrier that is a maximum Doppler of f_d ≈ 12 Hz and a coherence
time of tens of milliseconds — which is why per-subcarrier EVM is stable
over the 10–40 ms gaps of Fig. 7 and CoS can predict subcarrier quality
one packet ahead.

Each tap evolves as a first-order Gauss–Markov process whose one-step
correlation follows the Jakes autocorrelation rho(tau) = J0(2 pi f_d tau);
tap powers are preserved, so the frequency-selectivity *pattern* drifts
while its statistics stay put.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.channel.awgn import complex_gaussian
from repro.channel.multipath import TappedDelayLine
from repro.utils.rng import RngLike, make_rng

__all__ = ["jakes_correlation", "doppler_for_speed", "GaussMarkovEvolution"]

SPEED_OF_LIGHT = 299_792_458.0
WALKING_SPEED_MPS = 1.52  # 3.4 mph
DEFAULT_CARRIER_HZ = 2.412e9  # 802.11g channel 1


def doppler_for_speed(speed_mps: float = WALKING_SPEED_MPS,
                      carrier_hz: float = DEFAULT_CARRIER_HZ) -> float:
    """Maximum Doppler shift f_d = v / lambda."""
    if speed_mps < 0:
        raise ValueError("speed must be non-negative")
    return speed_mps * carrier_hz / SPEED_OF_LIGHT


@functools.lru_cache(maxsize=None)
def _bessel_j0():
    """scipy's Bessel J0, imported on first use: ``import repro`` and the
    network stack never evolve a channel, so they do not pay for scipy."""
    from scipy.special import j0

    return j0


def jakes_correlation(tau_s: float, doppler_hz: float) -> float:
    """Jakes channel autocorrelation rho(tau) = J0(2 pi f_d tau)."""
    return float(_bessel_j0()(2.0 * np.pi * doppler_hz * abs(tau_s)))


@dataclass
class GaussMarkovEvolution:
    """Evolve a tapped delay line through time.

    Parameters
    ----------
    tdl:
        The channel to evolve (mutated in place by :meth:`advance`).
    doppler_hz:
        Maximum Doppler shift; defaults to walking speed at 2.4 GHz.
    rng:
        Innovation source.
    """

    tdl: TappedDelayLine
    doppler_hz: float = field(default_factory=doppler_for_speed)
    rng: RngLike = None

    def __post_init__(self):
        self.rng = make_rng(self.rng)
        # Resolve J0 here so a fading channel's scipy import is paid when
        # it is built, not inside its first timed advance().
        _bessel_j0()
        # Tap powers are pinned at their initial values so the PDP (and the
        # average SNR bookkeeping) is invariant under evolution.
        self._tap_power = np.abs(self.tdl.taps) ** 2

    def advance(self, tau_s: float) -> TappedDelayLine:
        """Advance the channel by ``tau_s`` seconds and return it.

        h(t + tau) = rho * h(t) + sqrt(1 - rho^2) * w,  w ~ CN(0, PDP),
        which realises exactly the Jakes correlation at lag tau.
        """
        if tau_s < 0:
            raise ValueError("tau_s must be non-negative")
        if tau_s == 0:
            return self.tdl
        rho = jakes_correlation(tau_s, self.doppler_hz)
        rho = float(np.clip(rho, -1.0, 1.0))
        innovation = complex_gaussian(self.tdl.taps.shape, 1.0, self.rng)
        innovation = innovation * np.sqrt(self._tap_power)
        self.tdl.taps = rho * self.tdl.taps + np.sqrt(1.0 - rho * rho) * innovation
        return self.tdl

    def snapshot(self) -> TappedDelayLine:
        """An independent copy of the current channel state."""
        return TappedDelayLine(taps=self.tdl.taps.copy())
