"""Span-based tracing with a no-op fast path.

Usage — instrumented code calls the module-level :func:`span` context
manager unconditionally::

    from repro.obs.trace import span

    with span("rx.evd", rate_mbps=24):
        ...

When tracing is **disabled** (the default), :func:`span` returns a shared
immutable null object: the total overhead is one global load, one ``is
None`` test and a pair of no-op ``__enter__``/``__exit__`` calls — well
under a microsecond (the ``obs`` group of ``benchmarks/gates.py`` gates it),
so hot paths stay hot.

When **enabled** (:func:`enable`), each span records wall-clock duration
via ``time.perf_counter()``, its nesting depth and parent span id (spans
form a tree per thread), and optional labels.  On exit the span is
emitted to the configured :class:`~repro.obs.sink.Sink` as a ``"span"``
record; ``repro obs summarize`` turns those records into per-name
count/total/p50/p95 rows.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Optional

from repro.obs.sink import SCHEMA_VERSION, MemorySink, Sink

__all__ = [
    "NullSpan",
    "Span",
    "TimerSpan",
    "Tracer",
    "span",
    "timed_span",
    "event",
    "enable",
    "disable",
    "current_tracer",
    "tracing",
]


class NullSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **labels) -> "NullSpan":
        return self

    @property
    def enabled(self) -> bool:
        return False


_NULL_SPAN = NullSpan()


class Span:
    """One live span.  Created by :class:`Tracer`, not directly."""

    __slots__ = ("tracer", "name", "labels", "span_id", "parent_id",
                 "depth", "ts", "_t0", "duration_s")

    def __init__(self, tracer: "Tracer", name: str, labels: Dict) -> None:
        self.tracer = tracer
        self.name = name
        self.labels = labels
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.ts = 0.0
        self._t0 = 0.0
        self.duration_s = 0.0

    def set(self, **labels) -> "Span":
        """Attach labels discovered after entry (e.g. decoded rate)."""
        self.labels.update(labels)
        return self

    @property
    def enabled(self) -> bool:
        return True

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.labels.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False


class Tracer:
    """Owns the sink, the span-id counter, and per-thread span stacks."""

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **labels) -> Span:
        return Span(self, name, labels)

    def _push(self, sp: Span) -> None:
        stack = self._stack()
        sp.span_id = next(self._ids)
        sp.parent_id = stack[-1].span_id if stack else None
        sp.depth = len(stack)
        stack.append(sp)

    def _pop(self, sp: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # tolerate out-of-order exits
            stack.remove(sp)
        self.sink.emit({
            "type": "span",
            "schema": SCHEMA_VERSION,
            "name": sp.name,
            "ts": sp.ts,
            "dur_s": sp.duration_s,
            "id": sp.span_id,
            "parent": sp.parent_id,
            "depth": sp.depth,
            "labels": sp.labels,
        })

    # -- point events --------------------------------------------------

    def event(self, name: str, **fields) -> None:
        stack = self._stack()
        self.sink.emit({
            "type": "event",
            "schema": SCHEMA_VERSION,
            "name": name,
            "ts": time.time(),
            "parent": stack[-1].span_id if stack else None,
            **fields,
        })

    def close(self) -> None:
        self.sink.close()


# ---------------------------------------------------------------------------
# Module-level switch (the fast path)
# ---------------------------------------------------------------------------

_tracer: Optional[Tracer] = None


def span(name: str, **labels):
    """A span context manager, or the shared null span when disabled."""
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, labels)


class TimerSpan:
    """A measuring stand-in for :class:`Span` when tracing is disabled.

    Unlike :class:`NullSpan` it records ``duration_s``, so callers that
    *report* timings (e.g. the experiment runner's per-stage log lines)
    have one timing source whether or not tracing is on.  Nothing is
    emitted anywhere — it is a stopwatch, not a trace event.
    """

    __slots__ = ("duration_s", "_t0")

    def __init__(self) -> None:
        self.duration_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "TimerSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        return False

    def set(self, **labels) -> "TimerSpan":
        return self

    @property
    def enabled(self) -> bool:
        return False


def timed_span(name: str, **labels):
    """Like :func:`span`, but ``duration_s`` is valid even when disabled.

    With tracing enabled this *is* a traced span (recorded to the sink);
    disabled, it degrades to a plain stopwatch.  Use for coarse stage timing that feeds log lines —
    never on hot paths (the whole point of :class:`NullSpan` is that hot
    paths pay nothing when tracing is off).
    """
    tracer = _tracer
    if tracer is None:
        return TimerSpan()
    return Span(tracer, name, labels)


def event(name: str, **fields) -> None:
    """Record a point event (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, **fields)


def enable(sink: Optional[Sink] = None) -> Tracer:
    """Turn tracing on; returns the active :class:`Tracer`."""
    global _tracer
    _tracer = Tracer(sink=sink)
    return _tracer


def disable() -> None:
    """Turn tracing off (restores the sub-microsecond null path)."""
    global _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = None


def current_tracer() -> Optional[Tracer]:
    return _tracer


class tracing:
    """``with tracing(sink):`` — scoped enable/disable for tests."""

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self._sink = sink
        self.tracer: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self.tracer = enable(self._sink)
        return self.tracer

    def __exit__(self, *exc) -> None:
        global _tracer
        if _tracer is self.tracer:
            _tracer = None  # leave the sink open for the caller to inspect
