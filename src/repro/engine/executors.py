"""Trial executors: serial in-process and chunked process-pool backends.

Both expose the same streaming interface — ``run(fn, specs)`` yields
:class:`~repro.engine.worker.ChunkResult` objects as chunks complete —
so :func:`repro.engine.core.run_trials` is backend-agnostic.  Because a
trial's randomness is a pure function of its :class:`TrialSpec` (see
:mod:`repro.engine.spec`), completion *order* may differ between
backends while trial *results* cannot; the core reassembles by index.

``workers`` semantics, everywhere in the engine:

* ``0`` (the default) — serial, in the calling process (the reference
  executor);
* ``N >= 1`` — a pool of N worker processes.

A negative count is an error (:class:`ValueError` naming the value).
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.spec import TrialSpec
from repro.engine.worker import (
    ChunkResult,
    initialize_state,
    run_chunk,
    worker_initializer,
)

__all__ = [
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
]

#: Chunks per worker the default chunk size aims for: small enough for
#: load balancing and progress granularity, large enough to amortise IPC.
_CHUNKS_PER_WORKER = 4


def make_executor(
    workers: int = 0,
    *,
    init: Optional[Callable[..., Any]] = None,
    init_args: Tuple = (),
    chunk_size: Optional[int] = None,
):
    """Build the executor implied by ``workers`` (see module docstring)."""
    if workers < 0:
        raise ValueError(f"workers must be 0 (serial) or more, got {workers}")
    if workers == 0:
        return SerialExecutor(init=init, init_args=init_args, chunk_size=chunk_size)
    return ProcessExecutor(workers, init=init, init_args=init_args,
                           chunk_size=chunk_size)


def _chunk(specs: Sequence[TrialSpec], size: int) -> List[List[TrialSpec]]:
    size = max(int(size), 1)
    return [list(specs[i : i + size]) for i in range(0, len(specs), size)]


class SerialExecutor:
    """Run trials in the calling process — the determinism reference.

    Spans nest under the caller's trace, which is exactly what you want
    for debugging a single trial.
    """

    def __init__(
        self,
        *,
        init: Optional[Callable[..., Any]] = None,
        init_args: Tuple = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        self.workers = 0
        self.init = init
        self.init_args = init_args
        self.chunk_size = chunk_size

    def run(
        self, fn: Callable[[TrialSpec], Any], specs: Sequence[TrialSpec]
    ) -> Iterator[ChunkResult]:
        initialize_state(self.init, self.init_args)
        size = self.chunk_size or 1
        for chunk in _chunk(specs, size):
            result = run_chunk(fn, chunk)
            yield result
            if result.error is not None:
                return


class ProcessExecutor:
    """Chunked ``concurrent.futures.ProcessPoolExecutor`` backend.

    Specs are split into ``~_CHUNKS_PER_WORKER`` chunks per worker and
    submitted up front; results stream back in completion order.  Each
    worker drops any inherited tracer
    (:func:`~repro.engine.worker.worker_initializer`).  On the first
    failed chunk, remaining work is cancelled (fail fast).
    """

    def __init__(
        self,
        workers: int,
        *,
        init: Optional[Callable[..., Any]] = None,
        init_args: Tuple = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("ProcessExecutor needs at least one worker")
        self.workers = int(workers)
        self.init = init
        self.init_args = init_args
        self.chunk_size = chunk_size

    def _default_chunk_size(self, n_specs: int) -> int:
        return max(1, -(-n_specs // (self.workers * _CHUNKS_PER_WORKER)))

    def run(
        self, fn: Callable[[TrialSpec], Any], specs: Sequence[TrialSpec]
    ) -> Iterator[ChunkResult]:
        if not specs:
            return
        size = self.chunk_size or self._default_chunk_size(len(specs))
        chunks = _chunk(specs, size)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            initializer=worker_initializer,
            initargs=(self.init, self.init_args),
        )
        try:
            futures = [pool.submit(run_chunk, fn, chunk) for chunk in chunks]
            for future in concurrent.futures.as_completed(futures):
                result = future.result()
                yield result
                if result.error is not None:
                    return
        finally:
            # Fail-fast path (or generator close): drop queued chunks,
            # wait only for the ones already running.
            pool.shutdown(wait=True, cancel_futures=True)
