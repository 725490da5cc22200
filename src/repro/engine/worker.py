"""Worker-side plumbing: chunk execution and per-worker state.

Everything here must be importable and picklable from a bare worker
process.  A chunk is executed by :func:`run_chunk`; under the process
pool it runs inside a worker set up by :func:`worker_initializer`, and
only the chunk's ordered results (or its first error) come back to the
parent.

Per-worker state (:func:`worker_state`) lets trial functions reuse
expensive objects — e.g. one ``Transmitter``/``Receiver`` pair per
process instead of one per call — via either the ``init`` hook passed to
:func:`~repro.engine.core.run_trials` or lazy population from the trial
function itself.
"""

from __future__ import annotations

import logging
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.spec import TrialSpec
from repro.obs import trace as _trace
from repro.obs.trace import span

__all__ = [
    "ChunkResult",
    "worker_state",
    "initialize_state",
    "worker_initializer",
    "run_chunk",
]

#: Process-local scratch space for per-worker reusable objects.
_STATE: Dict[str, Any] = {}


def worker_state() -> Dict[str, Any]:
    """The per-process state dict (parent process included, for serial)."""
    return _STATE


def initialize_state(init: Optional[Callable[..., Any]], init_args: Tuple = ()) -> None:
    """Run the per-worker ``init`` hook into :func:`worker_state`.

    The hook may mutate :func:`worker_state` directly or return a dict to
    merge into it.  Idempotent by convention: hooks should tolerate being
    called once per ``run_trials`` invocation in the serial path.
    """
    if init is None:
        return
    result = init(*init_args)
    if isinstance(result, dict):
        _STATE.update(result)


def worker_initializer(init: Optional[Callable[..., Any]], init_args: Tuple = ()) -> None:
    """Process-pool initializer: isolate trace state, then run ``init``.

    * Drop any inherited tracer: the parent's sink (often an open file)
      must not receive interleaved writes from worker processes.
    * Pre-warm the compute-kernel backend (:func:`repro.kernels.warmup`)
      so C compilation / table builds happen once per worker, never
      inside a measured trial.
    """
    _trace._tracer = None
    _STATE.clear()
    _prewarm_kernels()
    initialize_state(init, init_args)


def _prewarm_kernels() -> None:
    """Warm the kernel backend; never let a warm-up failure kill a worker."""
    try:
        from repro import kernels

        kernels.warmup()
    except Exception:  # pragma: no cover — defensive; warm-up is best-effort
        logging.getLogger("repro.engine").warning(
            "kernel warm-up failed in worker", exc_info=True
        )


@dataclass
class ChunkResult:
    """Outcome of one chunk: ordered results or the first failure."""

    indices: List[int] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None  # TrialError kwargs, picklable

    @property
    def n_done(self) -> int:
        return len(self.results)


def run_chunk(
    fn: Callable[[TrialSpec], Any], specs: Sequence[TrialSpec]
) -> ChunkResult:
    """Execute a chunk of trials in the current process.

    Stops at the first failing trial and returns its context instead of
    raising (exceptions may not survive pickling; a dict always does).
    """
    out = ChunkResult()
    with span("engine.chunk", n_trials=len(specs)):
        for spec in specs:
            try:
                with span("engine.trial", index=spec.index):
                    result = fn(spec)
            except Exception as exc:  # noqa: BLE001 — reported, not swallowed
                out.error = {
                    "message": f"{type(exc).__name__}: {exc}",
                    "index": spec.index,
                    "params": _picklable_params(spec),
                    "seed_entropy": spec.seed_entropy,
                    "traceback_text": traceback.format_exc(),
                }
                break
            out.indices.append(spec.index)
            out.results.append(result)
    return out


def _picklable_params(spec: TrialSpec) -> Dict[str, Any]:
    """Params for the error report; degrade to reprs if pickling worries."""
    try:
        import pickle

        pickle.dumps(spec.params)
        return spec.params
    except Exception:  # pragma: no cover — defensive
        return {k: repr(v) for k, v in spec.params.items()}
