"""ASCII airtime timelines from net-lens event traces.

``repro obs timeline trace.jsonl`` renders, without re-running any
simulation, the picture the hidden-node story is usually told with:
one row per transmitting node, simulation time left to right, each
on-air interval painted with its frame kind::

    == Airtime timeline (0.0 - 30000.0 us) ==
    channel     ##### ## ########  ####...
    ap          ....a .. a....
    sta_hidden  DDDDD       DDDDDD
    sta_near         DD DDD

Characters: ``D`` data, ``C`` explicit control, ``a`` ACK, ``B``
beacon, ``!`` interferer burst; the ``channel`` row marks the union of
all transmissions (``#``).  A cell covering several kinds shows the
highest-priority one (data > control > ack > beacon > interference).
Multi-BSS traces (``net.tx_start`` records stamped with a ``bss`` field
by :class:`repro.net.lens.NetLens`) group the per-node rows by serving
AP, separated by ``-- bss <ap> --`` headers.

Only ``net.*`` point events are read — ``net.tx_start`` records carry
start time, duration, source, and kind — so any trace file that
interleaves spans, ``cos.exchange`` events, and net events works
unchanged.  A sweep's trace holds one set of records per trial, stamped
``trial=i``; the timeline shows the lowest trial (records without a
stamp, as a single ``run_scenario`` writes them, count as one trial of
their own).
Kept import-free of higher layers: ``repro.obs`` stays at the bottom of
the stack, and net traces arrive here as plain parsed dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["TxInterval", "extract_intervals", "render_timeline",
           "utilization_table"]

#: Paint characters by frame kind, in descending paint priority.
KIND_CHARS = (
    ("data", "D"),
    ("control", "C"),
    ("ack", "a"),
    ("beacon", "B"),
    ("interference", "!"),
)
_CHAR_FOR = dict(KIND_CHARS)
_PRIORITY = {kind: i for i, (kind, _c) in enumerate(KIND_CHARS)}


@dataclass
class TxInterval:
    """One on-air interval reconstructed from a ``net.tx_start`` record."""

    src: str
    kind: str
    start_us: float
    end_us: float
    bss: Optional[str] = None


def extract_intervals(events: Iterable[dict]) -> Tuple[List[TxInterval], float]:
    """Pull the lowest trial's transmission intervals and time horizon.

    The horizon is the latest simulation time mentioned by *any* net
    record of that trial, so trailing silence (e.g. a drained scenario)
    still shows.
    """
    intervals: Dict[int, List[TxInterval]] = {}
    horizons: Dict[int, float] = {}
    for ev in events:
        name = ev.get("name")
        if ev.get("type") != "event" or not str(name).startswith("net."):
            continue
        trial = ev.get("trial", -1)  # unstamped: one trial of their own
        t_us = float(ev.get("t_us", 0.0))
        horizons[trial] = max(horizons.get(trial, 0.0), t_us)
        if name != "net.tx_start":
            continue
        kind = ev.get("kind", "data")
        if ev.get("dst") is None and kind not in _CHAR_FOR:
            kind = "interference"  # legacy traces: un-kinded broadcast
        elif kind not in _CHAR_FOR:
            kind = "data"
        end = t_us + float(ev.get("duration_us", 0.0))
        horizons[trial] = max(horizons[trial], end)
        intervals.setdefault(trial, []).append(TxInterval(
            src=str(ev.get("src", "?")), kind=kind,
            start_us=t_us, end_us=end, bss=ev.get("bss"),
        ))
    if not horizons:
        return [], 0.0
    first = min(horizons)
    return intervals.get(first, []), horizons[first]


def _paint(row: List[Optional[str]], iv: TxInterval, t0: float,
           us_per_cell: float) -> None:
    lo = int((iv.start_us - t0) / us_per_cell)
    hi = int((iv.end_us - t0) / us_per_cell)
    # A sub-cell transmission (an ACK, usually) still gets one cell.
    for i in range(max(lo, 0), min(hi + 1, len(row))):
        old = row[i]
        if old is None or _PRIORITY[iv.kind] < _PRIORITY.get(old, 99):
            row[i] = iv.kind


def utilization_table(intervals: Sequence[TxInterval],
                      horizon_us: float) -> List[str]:
    """Per-node airtime-by-kind table plus the channel-busy union."""
    per_node: Dict[str, Dict[str, float]] = {}
    for iv in intervals:
        per_node.setdefault(iv.src, {})
        per_node[iv.src][iv.kind] = (
            per_node[iv.src].get(iv.kind, 0.0) + (iv.end_us - iv.start_us)
        )
    # Channel-busy union via boundary sweep.
    busy_us = 0.0
    edges = sorted(
        [(iv.start_us, 1) for iv in intervals]
        + [(iv.end_us, -1) for iv in intervals]
    )
    active, opened = 0, 0.0
    for t, delta in edges:
        if active == 0 and delta > 0:
            opened = t
        active += delta
        if active == 0 and delta < 0:
            busy_us += t - opened
    total = horizon_us or 1.0

    headers = ["node", "tx", "data us", "ctrl us", "ack us", "airtime %"]
    rows = []
    for name in sorted(per_node):
        kinds = per_node[name]
        n_tx = sum(1 for iv in intervals if iv.src == name)
        tx_us = sum(kinds.values())
        rows.append((
            name, str(n_tx),
            f"{kinds.get('data', 0.0):.0f}",
            f"{kinds.get('control', 0.0):.0f}",
            f"{kinds.get('ack', 0.0):.0f}",
            f"{tx_us / total * 100:.1f}",
        ))
    rows.append(("(channel)", str(len(intervals)), "", "", "",
                 f"{busy_us / total * 100:.1f}"))

    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def render_timeline(events: Iterable[dict], width: int = 72) -> str:
    """Render per-node ASCII timelines + the channel-utilization table."""
    intervals, horizon = extract_intervals(events)
    if not intervals:
        return "no net.tx_start events in trace"
    width = max(int(width), 8)
    t0 = 0.0
    us_per_cell = (horizon - t0) / width if horizon > t0 else 1.0

    bss_of: Dict[str, Optional[str]] = {}
    for iv in intervals:
        if iv.bss is not None:
            bss_of[iv.src] = iv.bss
    # Group rows by serving BSS when the trace carries the stamp; nodes
    # without one (interferers, single-BSS traces) sort after, by name.
    nodes = sorted({iv.src for iv in intervals},
                   key=lambda n: (bss_of.get(n) is None, bss_of.get(n, ""), n))
    rows: Dict[str, List[Optional[str]]] = {n: [None] * width for n in nodes}
    channel: List[Optional[str]] = [None] * width
    for iv in intervals:
        _paint(rows[iv.src], iv, t0, us_per_cell)
        _paint(channel, iv, t0, us_per_cell)

    label_w = max(len("channel"), max(len(n) for n in nodes))
    lines = [f"== Airtime timeline ({t0:.1f} - {horizon:.1f} us, "
             f"{us_per_cell:.1f} us/cell) =="]
    lines.append(
        "channel".ljust(label_w) + "  "
        + "".join("#" if c is not None else " " for c in channel)
    )
    grouped = any(b is not None for b in bss_of.values())
    current_bss: Optional[str] = None
    for name in nodes:
        bss = bss_of.get(name)
        if grouped and bss != current_bss:
            current_bss = bss
            lines.append(f"-- bss {bss if bss is not None else '(none)'} --")
        lines.append(
            name.ljust(label_w) + "  "
            + "".join(_CHAR_FOR[c] if c is not None else "." for c in rows[name])
        )
    legend = "  ".join(f"{c}={kind}" for kind, c in KIND_CHARS)
    lines.append(f"({legend}; #=channel busy)")
    lines.append("")
    lines += utilization_table(intervals, horizon)
    return "\n".join(lines)
