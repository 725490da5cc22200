"""802.11a PLCP preamble: short/long training fields and channel estimation.

The preamble occupies 16 µs: ten repetitions of a 0.8 µs short training
symbol (STF — AGC, coarse sync) followed by a double-length guard interval
and two 3.2 µs long training symbols (LTF — fine sync, channel estimation).
The least-squares channel estimate from the two LTF repetitions is the
``H_k`` the receiver uses for equalisation, CSI weighting, and — in CoS —
the pilot-aided noise-floor estimate (§III-C).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.phy.ofdm import TIME_SCALE
from repro.phy.params import N_FFT

__all__ = [
    "STF_SAMPLES",
    "LTF_SAMPLES",
    "PREAMBLE_SAMPLES",
    "SAMPLE_RATE_HZ",
    "ltf_frequency_symbol",
    "stf_frequency_symbol",
    "generate_preamble",
    "estimate_channel",
    "estimate_channel_batch",
    "estimate_channel_and_noise_batch",
    "estimate_noise_from_ltf",
    "estimate_noise_from_ltf_batch",
    "estimate_cfo",
    "synchronize",
]

SAMPLE_RATE_HZ = 20e6

STF_SAMPLES = 160
LTF_SAMPLES = 160
PREAMBLE_SAMPLES = STF_SAMPLES + LTF_SAMPLES

# Long training sequence L_{-26..26} (clause 18.3.3, Table 18-7).
_LTF_SEQ = np.array(
    [
        1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
        1, -1, 1, 1, 1, 1,  # -26 .. -1
        0,  # DC
        1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1,
        -1, 1, -1, 1, 1, 1, 1,  # +1 .. +26
    ],
    dtype=np.float64,
)

# Short training sequence: nonzero every 4th subcarrier (clause 18.3.3).
_STF_NONZERO = {
    -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j, -8: -1 - 1j,
    -4: 1 + 1j, 4: -1 - 1j, 8: -1 - 1j, 12: 1 + 1j, 16: 1 + 1j,
    20: 1 + 1j, 24: 1 + 1j,
}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def ltf_frequency_symbol() -> np.ndarray:
    """The known LTF values on FFT bins 0..63 (guards zero; read-only)."""
    grid = np.zeros(N_FFT, dtype=np.complex128)
    grid[np.arange(-26, 27) % N_FFT] = _LTF_SEQ
    return _read_only(grid)


@lru_cache(maxsize=None)
def stf_frequency_symbol() -> np.ndarray:
    """The known STF values on FFT bins 0..63 (read-only)."""
    grid = np.zeros(N_FFT, dtype=np.complex128)
    scale = np.sqrt(13.0 / 6.0)
    for k, value in _STF_NONZERO.items():
        grid[k % N_FFT] = scale * value
    return _read_only(grid)


@lru_cache(maxsize=None)
def _ltf_time() -> np.ndarray:
    """One 64-sample long training symbol in time (read-only)."""
    return _read_only(np.fft.ifft(ltf_frequency_symbol()) * TIME_SCALE)


@lru_cache(maxsize=None)
def _ltf_used() -> Tuple[np.ndarray, np.ndarray]:
    """The 52 bins the LTF occupies (a mask) and its values on them."""
    known = ltf_frequency_symbol()
    used = known != 0
    return _read_only(used), _read_only(known[used])


@lru_cache(maxsize=None)
def _preamble() -> np.ndarray:
    stf_time = np.fft.ifft(stf_frequency_symbol()) * TIME_SCALE
    stf = np.tile(stf_time, 3)[:STF_SAMPLES]  # periodic with period 16
    ltf_time = _ltf_time()
    gi2 = ltf_time[-32:]
    return _read_only(np.concatenate([stf, gi2, ltf_time, ltf_time]))


def generate_preamble() -> np.ndarray:
    """320 time-domain samples: 10 short symbols + GI2 + 2 long symbols.

    The waveform is built once; each call returns a fresh copy.
    """
    return _preamble().copy()


def _ltf_ffts_batch(preambles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    ltf_start = STF_SAMPLES + 32
    first = preambles[:, ltf_start : ltf_start + N_FFT]
    second = preambles[:, ltf_start + N_FFT : ltf_start + 2 * N_FFT]
    return (
        np.fft.fft(first, axis=1) / TIME_SCALE,
        np.fft.fft(second, axis=1) / TIME_SCALE,
    )


def _checked_preambles(preambles: np.ndarray) -> np.ndarray:
    preambles = np.asarray(preambles, dtype=np.complex128)
    if preambles.ndim != 2:
        raise ValueError("expected a (B, n_samples) preamble stack")
    if preambles.shape[1] < PREAMBLE_SAMPLES:
        raise ValueError("preamble slice too short")
    return preambles


def _channel_from_ffts(fft1: np.ndarray, fft2: np.ndarray) -> np.ndarray:
    used, known = _ltf_used()
    h = np.zeros((fft1.shape[0], N_FFT), dtype=np.complex128)
    h[:, used] = 0.5 * (fft1[:, used] + fft2[:, used]) / known
    return h


def _noise_from_ffts(fft1: np.ndarray, fft2: np.ndarray) -> np.ndarray:
    used, _ = _ltf_used()
    energy = np.abs(fft1[:, used] - fft2[:, used]) ** 2
    # The mean must reduce one row at a time: numpy's axis-1 reduction may
    # split its pairwise summation differently than a 1-D reduction, which
    # would make a row's estimate depend on the stack around it by an ulp.
    # A row of a C-contiguous matrix reduces exactly like the standalone
    # vector.
    return np.array([float(np.mean(row)) for row in energy]) / 2.0


def estimate_channel_batch(preambles: np.ndarray) -> np.ndarray:
    """Least-squares channel estimates from the two LTF repetitions.

    ``preambles`` is a ``(B, n_samples)`` stack of frames starting at the
    preamble.  Returns ``(B, 64)`` ``H`` on all FFT bins; guard bins (where
    the LTF is zero) are returned as 0 and must not be used.  The row FFT
    and the per-bin arithmetic are elementwise per packet, so row ``i``
    does not depend on the rest of the stack.
    """
    return _channel_from_ffts(*_ltf_ffts_batch(_checked_preambles(preambles)))


def estimate_channel(preamble_samples: np.ndarray) -> np.ndarray:
    """:func:`estimate_channel_batch` of one frame (a 64-bin vector)."""
    return estimate_channel_batch(np.asarray(preamble_samples)[None])[0]


def estimate_noise_from_ltf_batch(preambles: np.ndarray) -> np.ndarray:
    """Per-subcarrier noise variance from the difference of the LTF twins.

    The two long symbols carry identical signal, so their per-bin difference
    is pure noise with variance 2 * sigma^2; averaging over the 52 used bins
    gives a robust floor estimate that seeds the CoS energy detector.
    ``preambles`` is a ``(B, n_samples)`` stack; returns a ``(B,)`` float64
    vector.
    """
    return _noise_from_ffts(*_ltf_ffts_batch(_checked_preambles(preambles)))


def estimate_noise_from_ltf(preamble_samples: np.ndarray) -> float:
    """:func:`estimate_noise_from_ltf_batch` of one frame."""
    return float(estimate_noise_from_ltf_batch(np.asarray(preamble_samples)[None])[0])


def estimate_channel_and_noise_batch(
    preambles: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(estimate_channel_batch(p), estimate_noise_from_ltf_batch(p))``,
    bit for bit, from one pair of LTF FFTs."""
    ffts = _ltf_ffts_batch(_checked_preambles(preambles))
    return _channel_from_ffts(*ffts), _noise_from_ffts(*ffts)


def estimate_cfo(preamble_samples: np.ndarray) -> float:
    """Carrier-frequency-offset estimate in Hz from the training fields.

    Classic two-stage data-aided estimator: the STF repeats every 16
    samples, so the angle of the lag-16 autocorrelation gives a *coarse*
    estimate with a wide ±625 kHz range; the LTF repeats every 64 samples,
    giving a *fine* estimate (±156 kHz range) applied after coarse
    correction.  Both stages use only the standard preamble — exactly what
    commodity 802.11a receivers do.
    """
    samples = np.asarray(preamble_samples, dtype=np.complex128)
    if samples.size < PREAMBLE_SAMPLES:
        raise ValueError("preamble slice too short")

    # Coarse: STF lag-16 autocorrelation (skip the first short symbol to
    # avoid filter/channel transients).
    stf = samples[16:STF_SAMPLES]
    corr = np.sum(np.conj(stf[:-16]) * stf[16:])
    coarse = np.angle(corr) / (2.0 * np.pi * 16.0 / SAMPLE_RATE_HZ)

    # Fine: LTF lag-64 autocorrelation after derotating the coarse part.
    n = np.arange(samples.size)
    derotated = samples * np.exp(-2j * np.pi * coarse * n / SAMPLE_RATE_HZ)
    ltf = derotated[STF_SAMPLES + 32 : STF_SAMPLES + 32 + 2 * N_FFT]
    corr = np.sum(np.conj(ltf[:N_FFT]) * ltf[N_FFT:])
    fine = np.angle(corr) / (2.0 * np.pi * N_FFT / SAMPLE_RATE_HZ)
    return float(coarse + fine)


def synchronize(samples: np.ndarray, search: int = 200) -> int:
    """Locate the frame start by cross-correlating against the known LTF.

    Returns the estimated index of the first preamble sample.  In the
    simulator the true offset is usually known; this implements the classic
    matched-filter acquisition for completeness and for the sync tests.
    """
    template = np.conj(_ltf_time()[::-1])
    n = min(samples.size, search + PREAMBLE_SAMPLES + N_FFT)
    corr = np.abs(np.convolve(samples[:n], template, mode="valid"))
    if corr.size <= N_FFT:
        return 0
    # corr[i] peaks when an LTF symbol starts at sample i; the two LTF
    # repetitions are 64 samples apart, so summing corr[i] + corr[i + 64]
    # peaks uniquely at the *first* LTF start (offset + STF + GI2).
    combined = corr[:-N_FFT] + corr[N_FFT:]
    peak = int(np.argmax(combined))
    start = peak - (STF_SAMPLES + 32)
    return max(start, 0)
