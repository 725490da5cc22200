"""Environment-flag parsing shared by the engine, CLI and benchmarks.

These helpers are the one place that decides how a flag parses and what
counts as unset:

* :func:`env_int` — integer-valued flags such as ``REPRO_WORKERS``;
  empty string counts as unset.
* :func:`env_str` — string-valued flags such as ``REPRO_STORE``;
  empty string counts as unset.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_int", "env_str"]


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
