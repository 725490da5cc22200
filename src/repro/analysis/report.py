"""Markdown report generation from experiment results.

``repro report [path]`` runs every figure harness and writes a
self-contained results file — the programmatic companion to the
hand-annotated ``EXPERIMENTS.md``.  Each stage's section holds exactly
what ``repro experiments`` prints for it: its tables, then one
``claim <stage>.<name>: PASS|FAIL`` line per paper claim judged on those
results.  Useful after changing the simulator: regenerate and diff.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, List, Optional, Union

__all__ = ["generate_report", "write_report"]


def _capture(fn: Callable[[], None]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        fn()
    return buffer.getvalue().strip()


def generate_report(stages: Optional[List[str]] = None,
                    workers: Optional[int] = None) -> str:
    """Run the requested experiment stages and return a markdown report.

    ``stages`` names entries of :data:`repro.experiments.runner.STAGES`
    (None: all of them); an empty list or an unknown name raises
    :class:`ValueError` before anything runs.  ``workers`` selects the trial engine's
    executor (see :mod:`repro.engine`); the rendered results are
    identical either way.
    """
    from repro.experiments.runner import run_stage, select_stages

    selected = select_stages(stages)

    parts = [
        "# CoS reproduction — generated results",
        "",
        "Regenerate with `python -m repro.cli report`.",
        "",
    ]
    for name, title, stage in selected:
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(_capture(lambda: run_stage(name, stage, workers)))
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def write_report(path: Union[str, Path], stages: Optional[List[str]] = None,
                 workers: Optional[int] = None) -> Path:
    """Generate and write the report; returns the path written."""
    path = Path(path)
    path.write_text(generate_report(stages, workers=workers))
    return path
