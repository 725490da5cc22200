"""Offline trace analysis: ``repro obs summarize trace.jsonl``.

Reads a JSONL trace produced by :mod:`repro.obs` and — without re-running
any simulation — reports:

* a per-stage latency table (count, total, mean, p50, p95 per span name,
  exact percentiles from the recorded durations);
* span coverage of the exchange wall-clock (how much of each
  ``cos.exchange`` span is accounted for by direct child spans — the
  acceptance bar is ≥ 90 %);
* point-event counts by name;
* one outcomes table: counts by (event name, ``cause``) over the events
  that carry a ``cause`` field.  Each layer brings its own taxonomy —
  ``cos.exchange`` events use the CoS one (CRC fail vs. detection miss
  vs. feedback loss, see :data:`repro.cos.link.FAILURE_CAUSES`), the
  net-lens ``net.tx_end`` / ``net.drop`` records the frame one (see
  :data:`repro.net.lens.NET_FAILURE_CAUSES`) — and this module needs to
  know neither.

A net run's per-callback cost needs nothing extra: its ``net.*``
dispatch spans land in the per-stage table like any other span.

Kept free of imports from higher layers (``repro.experiments`` etc.) so
``repro.obs`` stays at the bottom of the stack.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.obs.sink import read_jsonl

__all__ = ["StageStats", "TraceSummary", "summarize_events", "summarize_trace",
           "format_summary"]

ROOT_SPAN = "cos.exchange"


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted data."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


@dataclass
class StageStats:
    """Latency statistics for one span name."""

    name: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p95_s: float
    max_s: float


@dataclass
class TraceSummary:
    """Everything ``repro obs summarize`` reports."""

    stages: List[StageStats] = field(default_factory=list)
    #: ``{event name: {cause: count}}`` over events carrying a ``cause``.
    causes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    n_spans: int = 0
    n_events: int = 0
    events: Dict[str, int] = field(default_factory=dict)
    exchange_total_s: float = 0.0
    exchange_covered_s: float = 0.0

    @property
    def exchange_coverage(self) -> float:
        """Fraction of exchange wall-clock covered by direct child spans."""
        if self.exchange_total_s <= 0.0:
            return 0.0
        return min(self.exchange_covered_s / self.exchange_total_s, 1.0)

    def stage(self, name: str) -> StageStats:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def summarize_events(events: Iterable[dict]) -> TraceSummary:
    """Aggregate parsed trace events into a :class:`TraceSummary`."""
    durations: Dict[str, List[float]] = defaultdict(list)
    by_name: Dict[str, int] = defaultdict(int)
    causes: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    spans: List[dict] = []
    n_events = 0

    for ev in events:
        if ev.get("type") == "span":
            spans.append(ev)
            durations[ev.get("name", "?")].append(float(ev.get("dur_s", 0.0)))
            continue
        n_events += 1
        name = ev.get("name", "?")
        by_name[name] += 1
        cause = ev.get("cause")
        if cause is not None:
            causes[name][cause] += 1

    # Coverage needs two passes: child spans close (and are emitted)
    # *before* their parent exchange span appears in the stream.
    exchange_ids = {ev.get("id") for ev in spans if ev.get("name") == ROOT_SPAN}
    exchange_total = sum(
        float(ev.get("dur_s", 0.0)) for ev in spans if ev.get("name") == ROOT_SPAN
    )
    covered = sum(
        float(ev.get("dur_s", 0.0))
        for ev in spans
        if ev.get("name") != ROOT_SPAN and ev.get("parent") in exchange_ids
    )
    n_spans = len(spans)

    stages = []
    for name in sorted(durations):
        vals = sorted(durations[name])
        stages.append(StageStats(
            name=name,
            count=len(vals),
            total_s=sum(vals),
            mean_s=sum(vals) / len(vals),
            p50_s=_percentile(vals, 0.50),
            p95_s=_percentile(vals, 0.95),
            max_s=vals[-1],
        ))
    # Child spans are attributed by direct parent id, so nested
    # grandchildren are *not* double-counted in the coverage figure.
    return TraceSummary(
        stages=stages,
        causes={name: dict(counts) for name, counts in causes.items()},
        n_spans=n_spans,
        n_events=n_events,
        events=dict(by_name),
        exchange_total_s=exchange_total,
        exchange_covered_s=covered,
    )


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Read a JSONL trace file and summarize it."""
    return summarize_events(read_jsonl(path))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           title: str) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"\n== {title} ==",
             "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def format_summary(summary: TraceSummary) -> str:
    """Render the per-stage latency, event and outcome tables as text."""
    lines: List[str] = []
    lines += _table(
        ["stage", "count", "total ms", "mean ms", "p50 ms", "p95 ms", "max ms"],
        [
            (s.name, str(s.count), _ms(s.total_s), _ms(s.mean_s),
             _ms(s.p50_s), _ms(s.p95_s), _ms(s.max_s))
            for s in summary.stages
        ],
        title="Per-stage latency",
    )
    if summary.exchange_total_s > 0:
        lines.append(
            f"\nexchange wall-clock: {summary.exchange_total_s * 1e3:.1f} ms, "
            f"span coverage: {summary.exchange_coverage * 100:.1f} %"
        )

    if summary.events:
        lines += _table(
            ["event", "count"],
            [(name, str(summary.events[name]))
             for name in sorted(summary.events)],
            title="Events",
        )
    rows = []
    for name in sorted(summary.causes):
        counts = summary.causes[name]
        total = sum(counts.values())
        for cause in sorted(counts, key=lambda c: (-counts[c], c)):
            rows.append((name, cause, str(counts[cause]),
                         f"{counts[cause] / total * 100:.1f}"))
    if rows:
        lines += _table(["event", "cause", "count", "%"], rows,
                        title="Outcomes (events by cause)")
    lines.append(f"\n{summary.n_spans} spans, {summary.n_events} events")
    return "\n".join(lines)
