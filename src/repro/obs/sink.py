"""Event sinks: where trace records go.

A trace holds two record kinds, told apart by their ``type`` field:
``"span"`` (a timed stage, :mod:`repro.obs.trace`) and ``"event"`` (a
named point event such as ``cos.exchange`` or ``net.tx_end``).  The JSONL
sink writes one JSON object per line so traces can be streamed, tailed,
grepped, and post-processed without loading the whole file;
:func:`read_jsonl` is the matching reader used by ``repro obs
summarize``.

Numpy scalars/arrays are converted to plain Python types on the way out,
so instrumented code can hand over whatever it has.

Every record carries a ``schema`` version field (:data:`SCHEMA_VERSION`,
stamped at the emission sites in :mod:`repro.obs.trace` and
:mod:`repro.net.lens`) so downstream tooling can evolve the formats
without guessing; :func:`read_jsonl` rejects a record stamped with any
other version, or of any other ``type``, rather than misread it.  It
tolerates a truncated *final* line — the normal state of a trace whose
producer crashed or was killed mid-write — instead of raising.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

__all__ = ["RECORD_TYPES", "SCHEMA_VERSION", "Sink", "JsonlSink", "MemorySink",
           "NullSink", "read_jsonl"]

#: Version stamped into every emitted JSONL event record.  Version 2:
#: net-lens records became ``type="event"`` records named ``net.<event>``
#: and lost their wall-clock ``wall_ts`` field.
SCHEMA_VERSION = 2

#: The record ``type`` values a trace may hold.
RECORD_TYPES = ("span", "event")


def _jsonable(value):
    """Best-effort conversion of numpy containers to JSON-native types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_default(value):
    """``json.dumps`` fallback: the numpy types :func:`_jsonable` converts.

    ``np.float64`` subclasses ``float`` and is encoded as one directly,
    with the same ``repr``, so the text equals ``dumps(_jsonable(event))``.
    """
    converted = _jsonable(value)
    if converted is value:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return converted


class Sink:
    """Interface: ``emit`` one event dict, ``close`` when done."""

    def emit(self, event: Dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(Sink):
    """Swallows everything."""

    def emit(self, event: Dict) -> None:
        pass


class MemorySink(Sink):
    """Keeps events in a list — the test/debug sink."""

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def emit(self, event: Dict) -> None:
        self.events.append(_jsonable(event))


class JsonlSink(Sink):
    """Writes one JSON object per line to a file or file-like object."""

    def __init__(self, target: Union[str, Path, io.TextIOBase]) -> None:
        if isinstance(target, (str, Path)):
            self._fh: Optional[io.TextIOBase] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.n_events = 0

    def emit(self, event: Dict) -> None:
        if self._fh is None:
            raise ValueError("sink is closed")
        # ``dumps`` runs the C encoder (``dump`` would stream through the
        # pure-Python one) and only numpy values reach ``_json_default``:
        # a traced span costs a fraction of what a full ``_jsonable``
        # copy of every event would.
        self._fh.write(
            json.dumps(event, separators=(",", ":"), default=_json_default) + "\n"
        )
        self.n_events += 1

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None


def read_jsonl(path: Union[str, Path], strict: bool = False) -> Iterator[Dict]:
    """Yield events from a JSONL trace file, skipping blank lines.

    A line that fails to parse is tolerated **iff** it is the last
    non-blank line of the file — the signature of a producer that died
    mid-write — so crashed-run traces stay readable.  A malformed line
    with valid records after it is real corruption and still raises
    (always raises with ``strict=True``).  A record whose ``schema`` is
    present and is not :data:`SCHEMA_VERSION`, or whose ``type`` is
    present and is not one of :data:`RECORD_TYPES` (an older build's
    ``"flight"`` record, say), raises :class:`ValueError` naming its line
    and the offending value.
    """
    with open(path, "r", encoding="utf-8") as fh:
        pending: Optional[str] = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                # The bad line was not final after all: genuine corruption.
                json.loads(pending)  # re-raise with the offending payload
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise
                pending = line
                continue
            if isinstance(record, dict):
                if record.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
                    raise ValueError(
                        f"{path}: line {lineno}: record has schema "
                        f"{record['schema']!r}; this reader reads schema "
                        f"{SCHEMA_VERSION}"
                    )
                if record.get("type", "event") not in RECORD_TYPES:
                    raise ValueError(
                        f"{path}: line {lineno}: record has type "
                        f"{record['type']!r}; this reader reads types "
                        f"{', '.join(RECORD_TYPES)}"
                    )
            yield record
