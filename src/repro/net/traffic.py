"""Per-node traffic generators: Poisson, bursty on/off, CBR.

A :class:`~repro.net.scenario.TrafficSpec` describes one source's
arrival process; :func:`arrival_times` synthesises the whole arrival
sequence up front from that source's own stream.

Models (cf. Nessi's ``trafficgen.py``):

* ``"poisson"`` — exponential inter-arrival gaps at ``rate_pps``.
* ``"onoff"`` — bursty: exponential ON phases (mean ``burst_on_us``)
  emitting Poisson arrivals at ``rate_pps``, separated by exponential
  OFF phases (mean ``burst_off_us``).  Mean rate is ``rate_pps *
  on/(on+off)``.
* ``"cbr"`` — constant bit rate: one packet exactly every
  ``1e6 / rate_pps`` µs.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["TRAFFIC_MODELS", "arrival_times", "mean_rate_pps"]

TRAFFIC_MODELS = ("poisson", "onoff", "cbr")


def mean_rate_pps(spec) -> float:
    """Long-run mean packet rate of a :class:`TrafficSpec` (for display)."""
    if spec.model == "onoff":
        duty = spec.burst_on_us / (spec.burst_on_us + spec.burst_off_us)
        return spec.rate_pps * duty
    return spec.rate_pps


def arrival_times(spec, duration_us: float,
                  rng: np.random.Generator) -> List[float]:
    """All arrival instants of ``spec`` within ``[start_us, stop]``.

    ``stop`` is the earlier of ``spec.stop_us`` and ``duration_us``.
    Draws from ``rng`` for the stochastic models (none for ``cbr``).
    """
    stop = duration_us if spec.stop_us is None else min(spec.stop_us,
                                                        duration_us)
    start = spec.start_us
    if start > stop:
        return []
    gap_us = 1e6 / spec.rate_pps
    times: List[float] = []
    if spec.model == "cbr":
        t = start
        while t <= stop:
            times.append(t)
            t += gap_us
    elif spec.model == "poisson":
        t = start + float(rng.exponential(gap_us))
        while t <= stop:
            times.append(t)
            t += float(rng.exponential(gap_us))
    elif spec.model == "onoff":
        t = start
        while t <= stop:
            on_end = t + float(rng.exponential(spec.burst_on_us))
            arrival = t + float(rng.exponential(gap_us))
            while arrival <= min(on_end, stop):
                times.append(arrival)
                arrival += float(rng.exponential(gap_us))
            t = on_end + float(rng.exponential(spec.burst_off_us))
    else:  # pragma: no cover - specs validate the model name
        raise ValueError(f"unknown traffic model {spec.model!r}")
    return times
