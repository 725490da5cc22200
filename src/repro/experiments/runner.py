"""Run every figure harness in sequence, print the paper-style tables and
judge the paper's shape claims on the results they print.

Usage::

    repro experiments                    # serial
    repro experiments --workers 4        # process pool
    repro experiments fig2 fig9          # subset
    REPRO_WORKERS=4 repro experiments    # pool via env

After its tables each stage prints one line per claim of its module's
``claims(result)``::

    claim fig2.gap_always_positive: PASS  measured 1.045 at 20 dB  bound > 0

A FAIL is a reproduction result, not a run error: the exit status stays 0.

Stage timing comes from the ``experiment.<stage>`` spans themselves
(:func:`repro.obs.trace.timed_span`): when tracing is enabled the stage
timings land in the JSONL trace exactly as logged — there is no second,
hand-rolled ``perf_counter`` path to drift out of sync.  Diagnostics go
through the ``repro.experiments.runner`` logger — ``repro
--log-level``/``--quiet`` control them; the result tables and claim
lines always print to stdout.

``workers`` (default: the ``REPRO_WORKERS`` environment flag, else
serial) is forwarded to every stage's ``run(workers=...)``; trial
results are bit-for-bit identical either way (see ``docs/engine.md``).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import resolve_workers
from repro.experiments import ablations, fig2, fig3, fig5, fig6, fig7, fig9, fig10, network, waterfall
from repro.experiments.common import Claim
from repro.obs.trace import timed_span

log = logging.getLogger("repro.experiments.runner")

#: A stage's run-and-print callable: ``fn(workers, network_opts)`` prints
#: the stage's tables and returns its claims, where ``network_opts``
#: holds ``network.run`` keywords (only the network stage reads them).
StageFn = Callable[[Optional[int], Dict], List[Claim]]


def _figure(module) -> StageFn:
    """A stage that prints ``module.run``'s result and returns its claims."""
    def stage(workers: Optional[int], _net: Dict) -> List[Claim]:
        result = module.run(workers=workers)
        module.print_result(result)
        return module.claims(result)
    return stage


def _network(workers: Optional[int], net: Dict) -> List[Claim]:
    result = network.run(workers=workers, **net)
    network.print_result(result)
    return network.claims(result)


#: Every experiment stage in run order: (name, report title, run-and-print).
#: ``repro experiments`` and ``repro report`` both select from it.  Each
#: title is the start of the first table title its stage prints, so a
#: stage's output can be found by it.
STAGES: Tuple[Tuple[str, str, StageFn], ...] = (
    ("fig2", "Fig. 2 — SNR gap", _figure(fig2)),
    ("fig3", "Fig. 3 — decoder-input BER", _figure(fig3)),
    ("fig5", "Fig. 5 — per-subcarrier EVM", _figure(fig5)),
    ("fig6", "Fig. 6 — symbol error pattern", _figure(fig6)),
    ("fig7", "Fig. 7 — temporal selectivity", _figure(fig7)),
    ("fig9", "Fig. 9 — max silence-symbol rate Rm", _figure(fig9)),
    ("fig10", "Fig. 10", _figure(fig10)),
    ("ablations", "Ablation — silence placement", _figure(ablations)),
    ("network", "Network comparison — explicit control frames vs CoS",
     _network),
    ("waterfall", "PHY waterfall — packet error rate", _figure(waterfall)),
)


def select_stages(names: Optional[Sequence[str]] = None
                  ) -> List[Tuple[str, str, StageFn]]:
    """The :data:`STAGES` entries named in ``names`` (all for None), in
    run order; an empty list or an unknown name raises
    :class:`ValueError` listing the valid ones."""
    if names is None:
        return list(STAGES)
    valid = [name for name, _title, _fn in STAGES]
    if not names:
        raise ValueError(f"no stage named; valid stages: {', '.join(valid)}")
    unknown = sorted(set(names) - set(valid))
    if unknown:
        raise ValueError(f"unknown stage(s) {', '.join(unknown)}; "
                         f"valid stages: {', '.join(valid)}")
    return [entry for entry in STAGES if entry[0] in names]


def run_stage(name: str, stage: StageFn, workers: Optional[int] = None,
              network_opts: Optional[Dict] = None) -> None:
    """Run one stage: its tables, then one ``claim <name>.<claim>`` line
    per claim it returns."""
    claims = stage(workers, network_opts or {})
    if claims:
        print()
    for c in claims:
        print(f"claim {name}.{c.name}: {'PASS' if c.holds else 'FAIL'}  "
              f"measured {c.measured}  bound {c.bound}")


def run(names: Sequence[str] = (), workers: Optional[int] = None,
        network_opts: Optional[Dict] = None) -> int:
    """Run and print the named stages (all when none are named).

    Returns 2, having run nothing, when a name is not a stage; else 0,
    whatever the claims' verdicts.
    """
    try:
        stages = select_stages(list(names) or None)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    log.info("trial engine: %s",
             "serial" if resolve_workers(workers) == 0
             else f"{resolve_workers(workers)} workers")
    for name, _title, stage in stages:
        log.info("stage %s starting", name)
        with timed_span(f"experiment.{name}") as sp:
            run_stage(name, stage, workers, network_opts)
        log.info("stage %s done in %.1fs", name, sp.duration_s)
    return 0
