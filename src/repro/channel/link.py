"""IndoorChannel: the composite link every experiment runs over.

Combines a tapped-delay-line multipath realisation, AWGN, optional pulse
interference, and walking-speed temporal evolution.  The class also owns
the SNR bookkeeping: given a *target measured SNR* (what the receiver NIC
would report) it solves for the noise level exactly, since both measured
and actual SNR scale linearly (in dB) with noise power for a fixed
channel realisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.channel.awgn import add_awgn
from repro.channel.interference import PulseInterferer
from repro.channel.multipath import POSITION_PROFILES, TappedDelayLine
from repro.channel.sounder import actual_snr_db, measured_snr_db, per_subcarrier_snr
from repro.channel.temporal import GaussMarkovEvolution, doppler_for_speed
from repro.obs.trace import span
from repro.phy.ofdm import DATA_BINS, subcarrier_noise_variance
from repro.utils.rng import RngLike, make_rng

__all__ = ["IndoorChannel"]

_TINY = 1e-15


@dataclass
class IndoorChannel:
    """An indoor WLAN link with controllable SNR, selectivity and mobility.

    Typical construction is via :meth:`position`::

        ch = IndoorChannel.position("A", snr_db=15.0, seed=42)
        rx_waveform = ch.transmit(tx_waveform)

    Attributes
    ----------
    tdl:
        The multipath realisation (evolves if :meth:`evolve` is called).
    noise_var:
        Per-time-sample complex noise variance.
    interferer:
        Optional :class:`PulseInterferer` applied after the channel.
    doppler_hz:
        Maximum Doppler for :meth:`evolve`.
    """

    tdl: TappedDelayLine
    noise_var: float
    rng: RngLike = None
    interferer: Optional[PulseInterferer] = None
    doppler_hz: float = field(default_factory=doppler_for_speed)
    cfo_hz: float = 0.0  # residual carrier frequency offset between the radios

    def __post_init__(self):
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValueError(
                f"noise_var must be finite and non-negative, got {self.noise_var}"
            )
        self.rng = make_rng(self.rng)
        self._evolution = GaussMarkovEvolution(
            tdl=self.tdl, doppler_hz=self.doppler_hz, rng=self.rng
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def position(
        cls,
        name: str,
        snr_db: float,
        seed: RngLike = None,
        snr_reference: str = "measured",
        interferer: Optional[PulseInterferer] = None,
        doppler_hz: Optional[float] = None,
        cfo_hz: float = 0.0,
    ) -> "IndoorChannel":
        """A channel at severity position "A"/"B"/"C" with a target SNR.

        ``snr_reference`` selects which SNR the target refers to:
        ``"measured"`` (NIC-reported, the x-axis of most paper figures) or
        ``"actual"`` (sounder ground truth).
        """
        rng = make_rng(seed)
        tdl = TappedDelayLine.for_position(name, rng)
        noise_var = cls._solve_noise_var(tdl, snr_db, snr_reference)
        kwargs = {} if doppler_hz is None else {"doppler_hz": doppler_hz}
        return cls(
            tdl=tdl, noise_var=noise_var, rng=rng, interferer=interferer,
            cfo_hz=cfo_hz, **kwargs,
        )

    @classmethod
    def flat(cls, snr_db: float, seed: RngLike = None) -> "IndoorChannel":
        """A frequency-flat AWGN channel (no selectivity; gap sources off)."""
        tdl = TappedDelayLine.identity()
        noise_var = cls._solve_noise_var(tdl, snr_db, "actual")
        return cls(tdl=tdl, noise_var=noise_var, rng=make_rng(seed))

    @staticmethod
    def _solve_noise_var(tdl: TappedDelayLine, snr_db: float, reference: str) -> float:
        if not math.isfinite(snr_db):
            raise ValueError(f"snr_db must be finite, got {snr_db}")
        gains = np.abs(tdl.frequency_response()[DATA_BINS]) ** 2
        gains = np.maximum(gains, _TINY)
        if reference == "measured":
            mean_gain = gains.size / np.sum(1.0 / gains)  # harmonic
        elif reference == "actual":
            mean_gain = gains.mean()  # arithmetic
        else:
            raise ValueError("snr_reference must be 'measured' or 'actual'")
        subcarrier_noise = mean_gain / (10.0 ** (snr_db / 10.0))
        # Invert subcarrier_noise_variance(): time var = f var * 64/52.
        return float(subcarrier_noise / subcarrier_noise_variance(1.0))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def transmit(self, waveform: np.ndarray) -> np.ndarray:
        """Propagate one PPDU: multipath, CFO rotation, noise, interference."""
        with span("channel.transmit") as sp:
            sp.set(n_samples=int(np.asarray(waveform).size))
            out = self.tdl.apply(waveform)
            if self.cfo_hz:
                n = np.arange(out.size)
                out = out * np.exp(2j * np.pi * self.cfo_hz * n / 20e6)
            out = add_awgn(out, self.noise_var, self.rng)
            if self.interferer is not None:
                out = self.interferer.apply(out)
            return out

    def evolve(self, tau_s: float) -> None:
        """Advance the channel by ``tau_s`` seconds of walking-speed motion."""
        with span("channel.evolve") as sp:
            sp.set(tau_s=tau_s)
            self._evolution.advance(tau_s)

    # ------------------------------------------------------------------
    # Introspection (ground truth for experiments)
    # ------------------------------------------------------------------

    def frequency_response(self) -> np.ndarray:
        """True H on all 64 FFT bins."""
        return self.tdl.frequency_response()

    @property
    def actual_snr_db(self) -> float:
        """What the paper's channel sounder would report."""
        return actual_snr_db(self.frequency_response(), self.noise_var)

    @property
    def measured_snr_db(self) -> float:
        """What the receiver NIC would report (drives rate adaptation)."""
        return measured_snr_db(self.frequency_response(), self.noise_var)

    def data_subcarrier_snrs(self) -> np.ndarray:
        """Linear per-data-subcarrier SNRs (ground truth)."""
        return per_subcarrier_snr(self.frequency_response(), self.noise_var)
