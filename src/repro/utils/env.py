"""Environment-flag parsing shared by experiments, CLI and benchmarks.

Historically every call site hand-rolled its own truthiness check
(``os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")``),
each accepting a slightly different vocabulary.  These helpers are the one
place that decides what counts as true/false/unset:

* :func:`env_bool` — ``1/0``, ``true/false``, ``yes/no``, ``on/off``
  (case-insensitive, surrounding whitespace ignored); anything else
  raises so typos fail loudly instead of silently meaning "off".
* :func:`env_int` — integer-valued flags such as ``REPRO_WORKERS``;
  empty string counts as unset.
* :func:`env_str` — string-valued flags such as ``REPRO_STORE``;
  empty string counts as unset.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_bool", "env_int", "env_str"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"", "0", "false", "no", "off"})


def env_bool(name: str, default: bool = False) -> bool:
    """Parse a boolean environment flag.

    Unset returns ``default``.  Accepted spellings (any case): true —
    ``1 true yes on``; false — empty, ``0 false no off``.  Anything else
    raises :class:`ValueError` rather than being silently falsy.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use one of 1/0, true/false, yes/no, on/off"
    )


def env_int(name: str, default: int = 0) -> int:
    """Parse an integer environment flag (empty/unset -> ``default``)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw.strip())
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    """Fetch a string flag, treating the empty string as unset."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return raw
