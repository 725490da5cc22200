"""``repro.obs`` — observability for the CoS pipeline.

One channel, off by default: :mod:`repro.obs.trace` — ``span("rx.evd")``
nested wall-clock tracing with a sub-microsecond no-op path when
disabled, and ``event(name, **fields)`` point events.  A trace holds only
these two record kinds: ``type="span"`` and ``type="event"``.  Each layer
names its own events and, where it has one, its own outcome taxonomy in a
``cause`` field — ``cos.exchange`` (:mod:`repro.cos.link`) explains every
CoS decision (rate, silences, detection, EVD, CRC, feedback), ``net.*``
(:mod:`repro.net.lens`) every frame's fate.

:func:`configure` is the one switch::

    import repro.obs as obs

    with obs.configure(trace_out="trace.jsonl"):
        link.run(n_packets=100, payload=b"x" * 512)

and ``repro obs summarize --json trace.jsonl`` rolls the records up into
event counts by cause and per-span count/total/p50/p95
(:mod:`repro.obs.summarize`).  The only other state is the result
store's hit/miss counters in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

from repro.obs import trace as _trace
from repro.obs.sink import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    read_jsonl,
)
from repro.obs.summarize import (
    TraceSummary,
    format_summary,
    summarize_events,
    summarize_trace,
)
from repro.obs.timeline import extract_intervals, render_timeline
from repro.obs.trace import Tracer, current_tracer, event, span, tracing

__all__ = [
    "Sink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "SCHEMA_VERSION",
    "read_jsonl",
    "Tracer",
    "span",
    "event",
    "tracing",
    "current_tracer",
    "TraceSummary",
    "summarize_events",
    "summarize_trace",
    "format_summary",
    "extract_intervals",
    "render_timeline",
    "ObsSession",
    "configure",
    "shutdown",
]


class ObsSession:
    """A live observability configuration (use as a context manager)."""

    def __init__(self, sink: Sink, tracer: Tracer) -> None:
        self.sink = sink
        self.tracer = tracer
        self._closed = False

    def close(self) -> None:
        """Disable tracing and close the sink."""
        if self._closed:
            return
        self._closed = True
        if _trace.current_tracer() is self.tracer:
            _trace.disable()  # closes the sink
        self.sink.close()

    def __enter__(self) -> "ObsSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def configure(
    trace_out: Union[str, Path, io.TextIOBase, Sink, None] = None,
) -> ObsSession:
    """Enable tracing into one sink.

    ``trace_out`` may be a path (JSONL file), an open text stream (left
    open on close), a :class:`Sink`, or None (records kept in a
    :class:`MemorySink`).
    """
    if isinstance(trace_out, Sink):
        sink: Sink = trace_out
    elif trace_out is None:
        sink = MemorySink()
    else:
        sink = JsonlSink(trace_out)
    return ObsSession(sink=sink, tracer=_trace.enable(sink))


def shutdown() -> None:
    """Hard-disable tracing (used by tests for isolation)."""
    _trace.disable()
