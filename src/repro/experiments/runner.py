"""Run every figure harness in sequence and print the paper-style tables.

Usage::

    python -m repro.experiments.runner                    # serial
    python -m repro.experiments.runner --workers 4        # process pool
    python -m repro.experiments.runner fig2 fig9          # subset
    REPRO_WORKERS=4 python -m repro.experiments.runner    # pool via env

Stage timing comes from the ``experiment.<stage>`` spans themselves
(:func:`repro.obs.trace.timed_span`): when tracing is enabled the stage
timings land in the JSONL trace exactly as logged — there is no second,
hand-rolled ``perf_counter`` path to drift out of sync.  Diagnostics go
through the ``repro.experiments.runner`` logger — ``repro
--log-level``/``--quiet`` control them; the result tables themselves
always print to stdout.

``--workers N`` (default: the ``REPRO_WORKERS`` environment flag, else
serial) is forwarded to every stage's ``run(workers=...)``; trial
results are bit-for-bit identical either way (see ``docs/engine.md``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import resolve_workers
from repro.experiments import ablations, fig2, fig3, fig5, fig6, fig7, fig9, fig10, network, waterfall
from repro.obs.trace import timed_span

log = logging.getLogger("repro.experiments.runner")

#: A stage's run-and-print callable: ``fn(workers, network_opts)``, where
#: ``network_opts`` holds ``network.run`` keywords (only the network
#: stage reads them).
StageFn = Callable[[Optional[int], Dict], None]


def _figure(module) -> StageFn:
    """A stage that prints ``module.run``'s result."""
    return lambda w, _net: module.print_result(module.run(workers=w))


def _ablations(w: Optional[int], _net: Dict) -> None:
    ablations.print_placement(ablations.run_placement(workers=w))
    ablations.print_evd(ablations.run_evd(workers=w))


def _network(w: Optional[int], net: Dict) -> None:
    network.print_result(network.run(workers=w, **net))


#: Every experiment stage in run order: (name, report title, run-and-print).
#: ``repro experiments``, this module's ``main`` and ``repro report`` all
#: select from it.  Each title is the start of the first table title its
#: stage prints, so a stage's output can be found by it.
STAGES: Tuple[Tuple[str, str, StageFn], ...] = (
    ("fig2", "Fig. 2 — SNR gap", _figure(fig2)),
    ("fig3", "Fig. 3 — decoder-input BER", _figure(fig3)),
    ("fig5", "Fig. 5 — per-subcarrier EVM", _figure(fig5)),
    ("fig6", "Fig. 6 — symbol error pattern", _figure(fig6)),
    ("fig7", "Fig. 7 — temporal selectivity", _figure(fig7)),
    ("fig9", "Fig. 9 — max silence-symbol rate Rm", _figure(fig9)),
    ("fig10", "Fig. 10", _figure(fig10)),
    ("ablations", "Ablation — silence placement", _ablations),
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


def network_options(args: argparse.Namespace) -> Dict:
    """The network-stage flags a parser set, as ``network.run`` keywords."""
    opts = {
        "payload_octets": args.payload_octets,
        "data_rate_mbps": args.data_rate_mbps,
        "packets_per_station": args.packets_per_station,
        "backend": args.network_backend,
    }
    return {key: value for key, value in opts.items() if value is not None}


def run(names: Sequence[str] = (), workers: Optional[int] = None,
        network_opts: Optional[Dict] = None) -> int:
    """Run and print the named stages (all when none are named).

    Returns 2, having run nothing, when a name is not a stage.
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
            stage(workers, network_opts or {})
        log.info("stage %s done in %.1fs", name, sp.duration_s)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="run the figure harnesses and print the paper-style tables",
    )
    parser.add_argument(
        "stages", nargs="*", metavar="stage",
        help="subset to run, e.g. fig2 fig9 ablations (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="trial-engine worker processes (0 = serial; "
             "default: REPRO_WORKERS or serial)",
    )
    net = parser.add_argument_group("network stage")
    net.add_argument("--payload-octets", type=int, default=None, metavar="B",
                     help="data payload per frame (default: 1024)")
    net.add_argument("--data-rate-mbps", type=int, default=None, metavar="R",
                     help="802.11a data rate (default: 24)")
    net.add_argument("--packets-per-station", type=int, default=None, metavar="P",
                     help="frames each station offers (default: 50)")
    net.add_argument("--network-backend", choices=["fast", "net"],
                     default=None,
                     help="contention model: slotted single-domain DCF "
                          "(fast, the default) or the spatial SINR "
                          "simulator (net)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    # workers=None defers to REPRO_WORKERS inside the engine.
    return run(args.stages, args.workers, network_options(args))


if __name__ == "__main__":
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    raise SystemExit(main())
