"""Deterministic discrete-event scheduler (heap-based calendar queue).

The contract the rest of :mod:`repro.net` relies on:

* Events fire in ``(time, priority, insertion order)`` order.  Ties at
  the same instant are broken first by ``priority`` (lower fires first),
  then FIFO — so a simulation replays identically for a given seed, no
  matter which executor or machine runs it.
* ``cancel`` is O(1): the handle is tombstoned and skipped when popped
  (the classic lazy-deletion heap idiom), which keeps ACK timeouts and
  backoff re-arms cheap.

Times are microseconds, matching the MAC constants in
:mod:`repro.mac.dcf`.

With a :mod:`repro.obs` tracer active, every dispatched callback runs
inside a ``net.<callback qualname>`` span (``net.Medium._end``, …), so
``repro obs summarize`` reports where the simulator's wall time goes.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Tuple

from repro.obs.trace import current_tracer

__all__ = ["Event", "EventScheduler"]


class Event:
    """Handle for a scheduled callback; pass to :meth:`EventScheduler.cancel`."""

    __slots__ = ("time_us", "priority", "seq", "fn", "args", "cancelled")

    def __init__(self, time_us: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: Tuple):
        self.time_us = time_us
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time_us:.1f}us p={self.priority} {self.fn!r}{state}>"


class EventScheduler:
    """Single-threaded event loop over a binary heap."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self.now_us: float = 0.0
        self.n_dispatched: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time_us: float, fn: Callable[..., Any], *args: Any,
           priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time_us``."""
        # One comparison per call, false for NaN as well as the past.
        if not time_us >= self.now_us - 1e-9:
            if math.isnan(time_us):
                raise ValueError(f"cannot schedule at time {time_us}")
            raise ValueError(
                f"cannot schedule in the past: {time_us} < now {self.now_us}"
            )
        event = Event(float(time_us), priority, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (event.time_us, priority, event.seq, event))
        return event

    def after(self, delay_us: float, fn: Callable[..., Any], *args: Any,
              priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` ``delay_us`` from now."""
        if not delay_us >= 0:
            raise ValueError(f"negative or NaN delay: {delay_us}")
        return self.at(self.now_us + delay_us, fn, *args, priority=priority)

    def cancel(self, event: Event) -> None:
        """Tombstone ``event``; cancelling twice (or a fired event) is a no-op."""
        event.cancelled = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for *_x, e in self._heap if not e.cancelled)

    def run(self, until_us: float = math.inf) -> float:
        """Dispatch events in order until the queue drains or ``until_us``.

        Returns the final simulation time: the last dispatched event's
        time if the queue drained first, else ``until_us`` (events beyond
        the horizon stay queued, so ``run`` may be resumed).

        The tracer is looked up once per call: with one active, each
        dispatch runs inside a ``net.<callback qualname>`` span; without
        one, the loop below carries no per-event check for it.
        """
        tracer = current_tracer()
        heap = self._heap
        if tracer is None:
            while heap:
                time_us, _priority, _seq, event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    continue
                if time_us > until_us:
                    self.now_us = until_us
                    return self.now_us
                heapq.heappop(heap)
                self.now_us = time_us
                self.n_dispatched += 1
                event.fn(*event.args)
        else:
            while heap:
                time_us, _priority, _seq, event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    continue
                if time_us > until_us:
                    self.now_us = until_us
                    return self.now_us
                heapq.heappop(heap)
                self.now_us = time_us
                self.n_dispatched += 1
                with tracer.span("net." + event.fn.__qualname__):
                    event.fn(*event.args)
        if until_us != math.inf:
            self.now_us = max(self.now_us, until_us)
        return self.now_us
