"""``repro.engine`` — deterministic parallel trial execution.

Every experiment harness is a Monte-Carlo sweep; this package is the one
trial loop they all share.  Define a sweep as a list of param dicts,
turn it into seeded :class:`TrialSpec`\\ s, hand a module-level trial
function to :func:`run_trials`, and pick an executor with ``workers``
(``0`` = serial, the default; ``N`` = a pool of N processes)::

    from repro import engine

    def _trial(spec):
        rng = spec.rng()                    # per-trial deterministic stream
        return simulate(spec["snr"], rng)

    results = engine.run_sweep(
        [{"snr": s} for s in snr_grid], _trial,
        seed=7, workers=2, label="fig2",
    )

Guarantees (see ``docs/engine.md`` for the full contract):

* **Determinism** — per-trial ``SeedSequence.spawn`` seeding makes serial
  and parallel outputs bit-for-bit identical;
* **Observability** — progress/ETA logs on ``repro.engine``;
  ``engine.*`` spans; store hit/miss counters kept in the parent;
* **Errors** — the first failing trial aborts the run with a
  :class:`TrialError` carrying its params and seed;
* **Reuse** — per-worker ``init`` hook plus :func:`worker_state` for
  expensive objects (one PHY per process, not one per call);
* **Resumability** — the content-addressed :class:`ResultStore`
  (``store=`` argument, :func:`set_default_store`, or the CLI's
  ``--store``) replays completed trials from disk bit-for-bit so re-runs
  only execute the delta.
"""

from repro.engine.core import run_sweep, run_trials
from repro.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.spec import TrialError, TrialSpec, make_specs
from repro.engine.store import (
    ResultStore,
    get_default_store,
    resolve_store,
    set_default_store,
)
from repro.engine.worker import worker_state

__all__ = [
    "TrialSpec",
    "TrialError",
    "make_specs",
    "run_trials",
    "run_sweep",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "worker_state",
    "ResultStore",
    "get_default_store",
    "set_default_store",
    "resolve_store",
]
