"""Small statistics helpers: empirical CDFs and binomial confidence bounds."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["empirical_cdf", "binomial_confidence", "wilson_interval"]


def empirical_cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return (sorted values, cumulative probabilities) for plotting a CDF."""
    values = np.sort(np.asarray(list(samples), dtype=np.float64))
    if values.size == 0:
        raise ValueError("need at least one sample")
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


def _check_counts(successes: int, trials: int, level: float) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in 0..trials ({trials}), got {successes!r}"
        )
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level!r}")


def binomial_confidence(successes: int, trials: int, level: float = 0.95) -> Tuple[float, float]:
    """Clopper–Pearson exact interval for a success probability."""
    _check_counts(successes, trials, level)
    from scipy import stats

    alpha = 1.0 - level
    low = 0.0 if successes == 0 else stats.beta.ppf(alpha / 2, successes, trials - successes + 1)
    high = 1.0 if successes == trials else stats.beta.ppf(
        1 - alpha / 2, successes + 1, trials - successes
    )
    return float(low), float(high)


def wilson_interval(successes: int, trials: int, level: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval (cheaper, good small-sample behaviour)."""
    _check_counts(successes, trials, level)
    from scipy import stats

    z = stats.norm.ppf(0.5 + level / 2.0)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return float(max(0.0, centre - half)), float(min(1.0, centre + half))
