"""Process-wide counters: the result store's hit and miss tallies.

Everything the simulator does is observable through trace records
(:mod:`repro.obs.trace`); this registry keeps only what a trace cannot
carry cheaply — running totals read back *in process* by callers that
never enable tracing.  Its one writer is :func:`repro.engine.run_trials`,
which counts ``repro_store_hits_total`` and ``repro_store_misses_total``
in the submitting process::

    from repro.obs.metrics import get_registry

    before = get_registry().counter("repro_store_hits_total").value
    ...
    hits = get_registry().counter("repro_store_hits_total").value - before
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter", "MetricsRegistry", "get_registry"]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class MetricsRegistry:
    """Named counters, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _default_registry
