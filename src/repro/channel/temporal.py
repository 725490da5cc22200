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

J0 is a pure-Python port of Stephen L. Moshier's Cephes ``j0`` (the
routine behind ``scipy.special.j0``): its rational approximation on
[0, 5], its Hankel asymptotic form beyond, and its coefficient tables and
Horner order, so each call returns the same double as scipy's without
loading scipy.
"""

from __future__ import annotations

import math
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


# Cephes j0.c: J0(x) = (x^2 - DR1)(x^2 - DR2) RP(x^2) / RQ(x^2) on [0, 5]
# (DR1, DR2 are the squares of its first two zeros), and beyond 5
# sqrt(2/(pi x)) (P(25/x^2) cos(x - pi/4) - (5/x) Q(25/x^2) sin(x - pi/4)).
_PP = (
    7.96936729297347051624e-4, 8.28352392107440799803e-2,
    1.23953371646414299388e0, 5.44725003058768775090e0,
    8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4, 8.56288474354474431428e-2,
    1.25352743901058953537e0, 5.47097740330417105182e0,
    8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2, -1.28252718670509318512e0,
    -1.95539544257735972385e1, -9.32060152123768231369e1,
    -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0,
)
_QQ = (  # leading 1.0 implied (p1evl)
    6.43178256118178023184e1, 8.56430025976980587198e2,
    3.88240183605401609683e3, 7.24046774195652478189e3,
    5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_RP = (
    -4.79443220978201773821e9, 1.95617491946556577543e12,
    -2.49248344360967716204e14, 9.70862251047306323952e15,
)
_RQ = (  # leading 1.0 implied (p1evl)
    4.99563147152651017219e2, 1.73785401676374683123e5,
    4.84409658339962045305e7, 1.11855537045356834862e10,
    2.11277520115489217587e12, 3.10518229857422583814e14,
    3.18121955943204943306e16, 1.71086294081043136091e18,
)
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)
_PIO4 = 7.85398163397448309616e-1  # pi / 4


def _polevl(x: float, coef: tuple) -> float:
    """Cephes ``polevl``: Horner from the highest-order coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0(x: float) -> float:
    """Bessel J0 of a finite ``x``, as Cephes (and so scipy) computes it."""
    if x < 0:
        x = -x
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _DR1) * (z - _DR2)
        return p * _polevl(z, _RP) / _p1evl(z, _RQ)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _PP) / _polevl(q, _PQ)
    q = _polevl(q, _QP) / _p1evl(q, _QQ)
    xn = x - _PIO4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def jakes_correlation(tau_s: float, doppler_hz: float) -> float:
    """Jakes channel autocorrelation rho(tau) = J0(2 pi f_d tau)."""
    x = 2.0 * np.pi * doppler_hz * abs(tau_s)
    if not math.isfinite(x):
        raise ValueError(f"2 pi doppler_hz |tau_s| must be finite, got "
                         f"tau_s={tau_s!r}, doppler_hz={doppler_hz!r}")
    return _j0(float(x))


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
        if not (math.isfinite(self.doppler_hz) and self.doppler_hz >= 0):
            raise ValueError(
                f"doppler_hz must be finite and non-negative, got {self.doppler_hz!r}")
        self.rng = make_rng(self.rng)
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
