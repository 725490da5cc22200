"""``run_trials`` — the one trial loop every experiment harness shares.

The engine owns everything the hand-rolled loops used to duplicate:

* executor selection (serial / process pool, ``--workers``);
* deterministic per-trial seeding (:func:`~repro.engine.spec.make_specs`);
* result ordering — chunks complete in any order, results come back in
  spec order;
* result-store accounting — hits and misses are counted in the
  submitting process (``repro_store_hits_total`` /
  ``repro_store_misses_total`` in :mod:`repro.obs.metrics`, and the
  ``store_hits`` label of the ``engine.run`` span), whatever the
  executor;
* fail-fast structured errors (:class:`~repro.engine.spec.TrialError`
  with the failing trial's params and seed);
* progress/ETA logging on the ``repro.engine`` logger, under an
  ``engine.run`` span.

Experiment modules shrink to a trial function (pure in its
:class:`~repro.engine.spec.TrialSpec`) plus a reduction over the ordered
results — see :mod:`repro.experiments.fig2` for the canonical shape.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.executors import make_executor
from repro.engine.spec import TrialError, TrialSpec, make_specs
from repro.engine.store import ResultStore, resolve_store
from repro.obs.metrics import get_registry
from repro.obs.trace import span

__all__ = ["run_trials", "run_sweep"]

log = logging.getLogger("repro.engine")

#: Progress lines are logged at INFO once a run has been going this long
#: (DEBUG before that, so quick sweeps stay quiet).
_PROGRESS_INFO_AFTER_S = 2.0
_PROGRESS_MIN_INTERVAL_S = 1.0


def run_trials(
    specs: Sequence[TrialSpec],
    fn: Callable[[TrialSpec], Any],
    executor=None,
    *,
    workers: int = 0,
    init: Optional[Callable[..., Any]] = None,
    init_args: Tuple = (),
    chunk_size: Optional[int] = None,
    label: str = "trials",
    store: Optional[ResultStore] = None,
) -> List[Any]:
    """Execute ``fn`` over ``specs``; return results in spec order.

    ``fn`` must be a module-level callable (picklable) whose behaviour —
    including randomness, via ``spec.rng()`` — depends only on the spec.
    Under that contract the output is bit-for-bit identical for every
    executor.

    Pass either a prebuilt ``executor`` or ``workers`` (``0``, the
    default, is serial; ``N`` is a pool of N processes).  ``init`` runs
    once per worker process (and once in-process for serial) to populate
    :func:`~repro.engine.worker.worker_state` with reusable objects.

    ``store`` selects the content-addressed result cache
    (:mod:`repro.engine.store`): ``None`` defers to the default store
    (off unless :func:`~repro.engine.store.set_default_store` or the
    CLI's ``--store`` installed one), or pass a :class:`ResultStore`.
    Cached trials replay bit-for-bit without executing; only the delta
    runs.  Trials whose params cannot be hashed deterministically simply
    always execute.

    Raises :class:`~repro.engine.spec.TrialError` on the first failing
    trial, carrying its index, params, seed entropy, and traceback.
    """
    specs = list(specs)
    n = len(specs)
    results: List[Any] = [None] * n

    # Store lookup happens in the submitting process, before dispatch:
    # hits never reach an executor, so a warm re-run costs I/O only.
    store_obj = resolve_store(store)
    pending: List[TrialSpec] = specs
    key_by_index: dict = {}
    n_hits = 0
    if store_obj is not None:
        pending = []
        # Specs of one call share their param objects (a sweep's scenario
        # appears once per trial): render each once.  The memo lives for
        # this call only; it holds the objects, so their ids stay theirs.
        memo: dict = {}
        for spec in specs:
            key = store_obj.key_for(fn, spec, memo)
            if key is not None:
                hit, value = store_obj.get(key)
                if hit:
                    results[spec.index] = value
                    n_hits += 1
                    continue
                key_by_index[spec.index] = key
            pending.append(spec)
        registry = get_registry()
        registry.counter("repro_store_hits_total").inc(n_hits)
        registry.counter("repro_store_misses_total").inc(len(pending))
        if n_hits:
            log.debug("%s: %d/%d trials served from store %s",
                      label, n_hits, n, store_obj.root)

    if executor is None:
        executor = make_executor(
            workers, init=init, init_args=init_args, chunk_size=chunk_size
        )

    t0 = time.perf_counter()
    done = n_hits
    last_progress = t0
    with span("engine.run", label=label, trials=n, workers=executor.workers,
              store_hits=n_hits):
        if pending:
            for chunk in executor.run(fn, pending):
                if chunk.error is not None:
                    raise TrialError(**chunk.error)
                for index, result in zip(chunk.indices, chunk.results):
                    results[index] = result
                    key = key_by_index.get(index)
                    if key is not None:
                        store_obj.put(key, result)
                done += chunk.n_done
                last_progress = _log_progress(
                    label, done, n, t0, last_progress, executor.workers
                )
    elapsed = time.perf_counter() - t0
    log.debug(
        "%s: %d trials done in %.2fs (%s)",
        label, n, elapsed,
        "serial" if executor.workers == 0 else f"{executor.workers} workers",
    )
    return results


def run_sweep(
    params: Sequence[Mapping[str, Any]],
    fn: Callable[[TrialSpec], Any],
    *,
    seed: Union[int, None] = 0,
    workers: int = 0,
    init: Optional[Callable[..., Any]] = None,
    init_args: Tuple = (),
    chunk_size: Optional[int] = None,
    label: str = "sweep",
    store: Optional[ResultStore] = None,
) -> List[Any]:
    """``make_specs`` + :func:`run_trials` in one call (the common case)."""
    return run_trials(
        make_specs(params, seed=seed),
        fn,
        workers=workers,
        init=init,
        init_args=init_args,
        chunk_size=chunk_size,
        label=label,
        store=store,
    )


def _log_progress(
    label: str, done: int, total: int, t0: float, last: float, workers: int
) -> float:
    now = time.perf_counter()
    if done < total and now - last < _PROGRESS_MIN_INTERVAL_S:
        return last
    elapsed = now - t0
    eta = elapsed / done * (total - done) if done else float("inf")
    level = logging.INFO if elapsed >= _PROGRESS_INFO_AFTER_S else logging.DEBUG
    log.log(
        level,
        "%s: %d/%d trials (%.0f%%) in %.1fs, eta %.1fs [workers=%d]",
        label, done, total, 100.0 * done / total if total else 100.0,
        elapsed, eta, workers,
    )
    return now
