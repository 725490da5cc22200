"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``info``
    Print the 802.11a rate table, rate-adaptation thresholds, channel
    severity profiles, and the default control-rate table.
``experiments [fig2 fig3 ...] [--workers N]``
    Run the figure harnesses (all by default) and print their tables,
    each stage followed by one ``claim <stage>.<name>: PASS|FAIL`` line
    per paper claim judged on the result it printed (a FAIL does not
    change the exit status); an unknown stage name exits 2 and lists
    the valid ones (as does ``report --stages``).
    ``--workers N`` executes trials on an N-process pool via
    :mod:`repro.engine` (default 0: serial); results are bit-for-bit
    identical either way.
``link --snr DB --position P --packets N``
    Run a closed-loop CoS session and print its statistics.  With
    ``--trace-out trace.jsonl`` every stage span and one ``cos.exchange``
    point event per exchange are written as JSONL; ``repro obs summarize
    --json`` rolls them up.
``net run <scenario> [--control cos|explicit] [--medium culled|dense-exact]
[--trials N] [--workers N]``
    Run a multi-node scenario (a ``ScenarioSpec`` JSON file or a
    built-in name — ``net list`` shows those, with node/BSS counts and
    the offered traffic) on the event-driven spatial simulator and
    print per-node goodput, delivery, control latency, and fairness
    stats.  ``--medium`` switches between the grid-culled medium
    (default) and the all-pairs ``dense-exact`` debug mode.  ``--json PATH``
    exports the mean-over-trials summary.  ``--trace-out`` and
    ``--ledger-out`` each attach a
    :class:`repro.net.lens.NetLens` to every trial (so the summary JSON
    also gains a ``ledger`` section).  ``--trace-out`` writes every
    trial's ``net.*`` event records, stamped ``trial=i``, as JSONL, the
    same records for serial and ``--workers N`` runs; a serial run adds
    one ``net.<callback>`` span per dispatched event.  ``--ledger-out``
    writes the first trial's per-node airtime ledger as JSON.  Trials go
    through the deterministic engine: serial and ``--workers N`` results
    are bit-for-bit identical.  ``--controller NAME`` swaps the rate
    controller (:mod:`repro.ratectl`, default: the scenario's; ``net
    list`` prints the set).  Frame fates and CoS message delivery are
    always drawn from the measured-PHY surrogate table.
``net compare [--scenario S ...] [--controllers a,b] [--trials N]``
    Run the rate-controller matrix over one or more scenarios (default:
    all registered controllers on ``hidden-node``) and print one
    comparison table per scenario; ``--json`` exports the report(s).
``net tables build|inspect``
    Build or summarise the measured-PHY surrogate table every
    ``repro.net`` run replays (the committed position-A table).
    ``--out`` redirects a build; ``--quick`` (a smoke-test grid)
    requires it, so a smoke test never replaces the committed table.
``obs summarize trace.jsonl``
    Analyse a recorded trace offline: per-stage latency percentiles
    (for a net run, per scheduler callback), exchange span coverage,
    point-event counts by name, and one outcomes table: event counts by
    (name, ``cause``) — CoS exchange failure causes and net frame fates
    alike.
``obs timeline trace.jsonl [--width N]``
    Render per-node ASCII airtime timelines and a channel-utilization
    table from the ``net.*`` records of a ``net run --trace-out`` file
    (its lowest trial).

Global flags: ``--log-level debug|info|warning|error`` and ``--quiet``
control the ``repro.*`` logger hierarchy (diagnostics go to stderr;
result tables always go to stdout).

Every output-path flag (``--json``, ``--trace-out``, ``--ledger-out``)
takes ``-`` for stdout; ``--trace-out -`` streams the JSONL records
there as they are emitted.

Sweep-running commands (``experiments``, ``report``, ``net run``,
``net compare``) accept ``--store [DIR]`` to cache trial results in a
content-addressed store (re-runs replay completed trials bit-for-bit).
Default: off.  A negative ``--workers`` exits 2.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser", "setup_logging"]

_LOG_LEVELS = ("debug", "info", "warning", "error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoS (Communication through Symbol Silence) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, default="info",
        help="verbosity of the repro.* logger hierarchy (default: info)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress diagnostics (equivalent to --log-level error)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print rate tables and channel profiles")

    def add_store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", nargs="?", const=".repro-store", default=None,
            metavar="DIR",
            help="cache trial results in a content-addressed store at DIR "
                 "(default: .repro-store); re-runs replay completed trials "
                 "bit-for-bit",
        )

    def add_workers_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="trial-engine worker processes (default: 0, "
                            "serial)")

    exp = sub.add_parser("experiments", help="run figure harnesses")
    add_store_flag(exp)
    exp.add_argument("figures", nargs="*", help="subset, e.g. fig2 fig9 ablations")
    add_workers_flag(exp)

    net = sub.add_parser(
        "net", help="run multi-node WLAN scenarios (repro.net)"
    )
    net_sub = net.add_subparsers(dest="net_command", required=True)
    net_list = net_sub.add_parser("list", help="list built-in scenarios")
    net_run = net_sub.add_parser(
        "run", help="run a scenario file or built-in by name"
    )
    net_run.add_argument(
        "scenario",
        help="path to a ScenarioSpec JSON file, or a built-in name "
             "(see 'repro net list')",
    )
    net_run.add_argument("--control", choices=["cos", "explicit"], default=None,
                         help="override the scenario's control scheme")
    net_run.add_argument("--medium", choices=["culled", "dense-exact"],
                         default=None,
                         help="override the scenario's medium mode "
                              "(culled = grid-indexed interference culling; "
                              "dense-exact = all-pairs debug semantics)")
    net_run.add_argument("--trials", type=int, default=1, metavar="N",
                         help="independent trials (engine sweep)")
    net_run.add_argument("--seed", type=int, default=0)
    add_workers_flag(net_run)
    net_run.add_argument("--json", default=None, metavar="PATH",
                         help="write the mean-over-trials summary as JSON "
                              "('-' for stdout)")
    net_run.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write every trial's net event records (and, "
                              "serially, per-callback spans) as JSONL to "
                              "PATH ('-' for stdout); feed to 'repro obs "
                              "summarize' or 'repro obs timeline'")
    net_run.add_argument("--ledger-out", default=None, metavar="PATH",
                         help="write the first trial's per-node airtime "
                              "ledger as JSON ('-' for stdout)")
    net_run.add_argument("--controller", default=None, metavar="NAME",
                         help="rate controller (repro.ratectl), e.g. "
                              "minstrel, samplerate, snr-threshold; default: "
                              "the scenario's controller")
    add_store_flag(net_run)

    net_cmp = net_sub.add_parser(
        "compare", help="run the rate-controller matrix over a scenario"
    )
    net_cmp.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario file or built-in name; repeatable (default: "
             "hidden-node)",
    )
    net_cmp.add_argument("--controllers", default=None, metavar="CSV",
                         help="comma-separated controller names (default: "
                              "the full matrix)")
    net_cmp.add_argument("--trials", type=int, default=3, metavar="N",
                         help="independent trials per cell (default: 3)")
    net_cmp.add_argument("--seed", type=int, default=0)
    add_workers_flag(net_cmp)
    net_cmp.add_argument("--json", default=None, metavar="PATH",
                         help="write the comparison report as JSON "
                              "('-' for stdout)")
    add_store_flag(net_cmp)

    net_tables = net_sub.add_parser(
        "tables", help="build/inspect measured-PHY surrogate tables"
    )
    tables_sub = net_tables.add_subparsers(dest="tables_command", required=True)
    t_build = tables_sub.add_parser(
        "build", help="sweep the real PHY and write a surrogate table"
    )
    t_build.add_argument("--out", default=None, metavar="PATH",
                         help="output JSON path (default: the committed "
                              "default table the net layer loads)")
    t_build.add_argument("--quick", action="store_true",
                         help="coarse grid, few packets — a smoke-test "
                              "build, not a committable table (needs --out)")
    add_workers_flag(t_build)
    t_inspect = tables_sub.add_parser(
        "inspect", help="summarise a surrogate table"
    )
    t_inspect.add_argument("path", nargs="?", default=None,
                           help="table JSON (default: the committed "
                                "default table)")

    link = sub.add_parser("link", help="run a closed-loop CoS session")
    link.add_argument("--snr", type=float, default=15.0, help="measured SNR in dB")
    link.add_argument("--position", default="A", choices=["A", "B", "C"])
    link.add_argument("--packets", type=int, default=50)
    link.add_argument("--payload", type=int, default=512, help="payload bytes")
    link.add_argument("--seed", type=int, default=5)
    link.add_argument("--predictor", action="store_true", help="enable EVM smoothing")
    link.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write the span + cos.exchange event JSONL trace "
                           "to PATH ('-' for stdout)")

    obs_p = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser(
        "summarize", help="per-stage latency + outcomes from a trace"
    )
    summ.add_argument("trace", help="path to a trace.jsonl produced by --trace-out")
    summ.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON summary")
    tl = obs_sub.add_parser(
        "timeline", help="ASCII per-node airtime timelines from a net trace"
    )
    tl.add_argument("trace", help="path to a JSONL net event trace "
                                  "(e.g. from 'repro net run --trace-out'); "
                                  "its lowest trial is shown")
    tl.add_argument("--width", type=int, default=72, metavar="N",
                    help="timeline width in cells (default: 72)")

    report = sub.add_parser("report", help="run experiments and write a markdown report")
    report.add_argument("path", nargs="?", default="RESULTS.md")
    report.add_argument("--stages", nargs="+", default=None,
                        help="subset, e.g. fig2 waterfall (default: all)")
    add_workers_flag(report)
    add_store_flag(report)
    return parser


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to whatever ``sys.stderr`` is now.

    An in-process caller may swap ``sys.stderr`` after the first
    :func:`setup_logging` (a test's capture, a notebook); a handler bound
    to the stream of that first call would then write to a closed one.
    """

    def __init__(self) -> None:
        super().__init__(sys.stderr)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value) -> None:
        pass


def setup_logging(level: str = "info", quiet: bool = False) -> None:
    """Configure the ``repro`` logger hierarchy (idempotent)."""
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(logging.ERROR if quiet else getattr(logging, level.upper()))


def _write_out(path: str, text: str, what: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    logging.getLogger("repro.cli").info("%s written to %s", what, path)


def _open_trace(path: Optional[str]):
    """An :class:`repro.obs.ObsSession` tracing to ``path`` (stdout for
    ``-``, left open on close), or None when ``path`` is None."""
    import repro.obs as obs

    if path is None:
        return None
    return obs.configure(trace_out=sys.stdout if path == "-" else path)


def _close_trace(session, path: Optional[str]) -> None:
    if session is not None:
        session.close()
        logging.getLogger("repro.cli").info("trace written to %s", path)


def _cmd_info() -> int:
    from repro.cos.rate_control import DEFAULT_RM_TABLE
    from repro.channel.multipath import POSITION_PROFILES
    from repro.experiments.common import print_table
    from repro.phy.params import RATE_TABLE
    from repro.ratectl import DEFAULT_THRESHOLDS

    print_table(
        ["Mbps", "modulation", "code rate", "bits/sym", "min SNR dB", "Rm low", "Rm high"],
        [
            (
                mbps,
                rate.modulation,
                str(rate.code_rate),
                rate.n_dbps,
                DEFAULT_THRESHOLDS[mbps],
                int(DEFAULT_RM_TABLE[mbps][0]),
                int(DEFAULT_RM_TABLE[mbps][1]),
            )
            for mbps, rate in sorted(RATE_TABLE.items())
        ],
        title="802.11a rates, adaptation thresholds, control-rate table",
    )
    print_table(
        ["position", "taps", "decay (taps)"],
        [
            (name, int(p["n_taps"]), p["decay_taps"])
            for name, p in sorted(POSITION_PROFILES.items())
        ],
        title="Indoor severity profiles",
    )
    return 0


def _apply_store_flag(args) -> None:
    """Install the process-wide default result store per --store.

    Harnesses call the engine with ``store=None`` (defer to the default),
    so setting the default here threads the store through every sweep the
    command runs without each harness needing a parameter.
    """
    from repro.engine.store import ResultStore, set_default_store

    if args.store:
        store = ResultStore(args.store)
        set_default_store(store)
        logging.getLogger("repro.cli").info("trial result store: %s",
                                            store.root)


def _load_scenario(name: str, log):
    """The scenario ``name`` names: a ScenarioSpec JSON file if that path
    exists, else a built-in.  None (with the error logged) if neither."""
    from repro.net import BUILTIN_SCENARIOS, ScenarioSpec, builtin_scenario

    if os.path.exists(name):
        try:
            return ScenarioSpec.load(name)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            log.error("invalid scenario file %s: %s", name, exc)
            return None
    if name in BUILTIN_SCENARIOS:
        return builtin_scenario(name)
    log.error(
        "%r is neither a scenario file nor a built-in (see 'repro net list')",
        name,
    )
    return None


def _cmd_experiments(args) -> int:
    from repro.experiments import runner

    _apply_store_flag(args)
    return runner.run(args.figures, args.workers)


def _cmd_net_tables(args, log) -> int:
    import dataclasses

    import numpy as np

    from repro.experiments.common import print_table
    from repro.phy import surrogate

    if args.tables_command == "build":
        spec = surrogate.SurrogateSpec()
        if args.quick:
            if args.out is None:
                log.error("--quick builds a smoke-test table, which must not "
                          "replace the committed default; pass --out PATH")
                return 2
            # A sanity-check build: tiny probes on a coarse grid.  The
            # spec hash keeps it from masquerading as the default table.
            spec = dataclasses.replace(
                spec, channel_seeds=(0,), n_packets=8, sinr_step_db=8.0,
                cos_channel_seeds=(0,), cos_n_packets=4,
            )
        out = args.out or surrogate.default_table_path()
        table = surrogate.build_surrogate_table(spec, workers=args.workers)
        table.save(out)
        log.info(
            "surrogate table %s written to %s (max |fit-raw| %.4f)",
            table.spec_hash, out, table.max_fit_error(),
        )
        print(f"wrote {out} (spec {table.spec_hash})")
        return 0

    # inspect
    path = args.path or surrogate.default_table_path()
    try:
        table = surrogate.SurrogateTable.load(path)
    except FileNotFoundError:
        log.error("no surrogate table at %s — run 'repro net tables build'",
                  path)
        return 2
    except ValueError as exc:
        log.error("invalid surrogate table %s: %s", path, exc)
        return 2
    grid = table.sinr_grid_db
    rows = []
    for rate in sorted(table.prr_fit):
        fit = table.prr_fit[rate]
        above = np.flatnonzero(fit >= 0.9)
        knee = f"{grid[above[0]]:g} dB" if above.size else "> grid"
        rows.append((
            rate,
            f"{fit[0]:.2f}..{fit[-1]:.2f}",
            knee,
            f"{float(np.max(np.abs(fit - table.prr_raw[rate]))):.4f}",
        ))
    print_table(
        ["rate (Mbps)", "PRR span", "PRR>=0.9 at", "max |fit-raw|"],
        rows,
        title=(
            f"Surrogate table {table.spec_hash} (v{table.version}) — "
            f"SINR {grid[0]:g}..{grid[-1]:g} dB step "
            f"{table.spec.sinr_step_db:g}, {table.spec.n_packets} pkts x "
            f"{len(table.spec.channel_seeds)} seed(s), position "
            f"{table.spec.position!r}"
        ),
    )
    cos = table.cos_fit
    fewest = int(np.argmin(table.cos_carried))
    print(
        f"CoS delivery: {float(cos.min()):.2f}..{float(cos.max()):.2f} over "
        f"{int(table.cos_grid_db[0])}..{int(table.cos_grid_db[-1])} dB "
        f"(closed-loop measure_cos_point: {table.spec.cos_n_packets} "
        f"packets x {len(table.spec.cos_channel_seeds)} seed(s), fewest "
        f"carriers {int(table.cos_carried[fewest])} at "
        f"{int(table.cos_grid_db[fewest])} dB, max "
        f"|fit-raw| {float(np.nanmax(np.abs(cos - table.cos_raw))):.4f})"
    )
    return 0


def _cmd_net_compare(args, log) -> int:
    import json

    from repro.experiments.common import print_table
    from repro.ratectl import COMPARISON_HEADERS, CONTROLLER_MATRIX, \
        compare_controllers, comparison_rows

    if args.trials < 1:
        log.error("--trials must be at least 1 (got %d)", args.trials)
        return 2
    controllers = tuple(CONTROLLER_MATRIX)
    if args.controllers:
        controllers = tuple(
            c.strip() for c in args.controllers.split(",") if c.strip()
        )
    specs = []
    for name in (args.scenario or ["hidden-node"]):
        spec = _load_scenario(name, log)
        if spec is None:
            return 2
        specs.append(spec)
    _apply_store_flag(args)

    reports = []
    for spec in specs:
        try:
            report = compare_controllers(
                spec, controllers=controllers, n_trials=args.trials,
                seed=args.seed, workers=args.workers,
            )
        except ValueError as exc:
            log.error("%s", exc)
            return 2
        reports.append(report)
        print_table(
            list(COMPARISON_HEADERS), comparison_rows(report),
            title=(
                f"Rate-controller matrix on {report['scenario']} "
                f"[{report['n_trials']} trial(s), seed {report['seed']}]"
            ),
        )
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        _write_out(args.json, json.dumps(payload, indent=2) + "\n",
                   "comparison")
    return 0


def _cmd_net(args) -> int:
    import json

    from repro.experiments.common import print_table
    from repro.net import BUILTIN_SCENARIOS, run_scenario_sweep, \
        summarize_results
    from repro.net.traffic import mean_rate_pps

    log = logging.getLogger("repro.cli")

    if args.net_command == "list":
        from repro.ratectl import available_controllers

        rows = []
        for name, factory in sorted(BUILTIN_SCENARIOS.items()):
            spec = factory()
            backlogged = sum(f.n_packets for f in spec.flows)
            rate = sum(mean_rate_pps(t) for t in spec.traffic)
            traffic = (f"{rate:.0f} pps" if spec.traffic
                       else f"{backlogged} pkts backlogged")
            rows.append((
                name,
                len(spec.nodes),
                len(spec.bsses) or "-",
                traffic,
                spec.controller,
                (factory.__doc__ or "").strip().splitlines()[0],
            ))
        print_table(
            ["scenario", "nodes", "bsses", "traffic", "controller",
             "description"],
            rows,
            title="Built-in repro.net scenarios",
        )
        print("rate controllers (--controller): "
              + ", ".join(available_controllers()))
        return 0

    if args.net_command == "compare":
        return _cmd_net_compare(args, log)

    if args.net_command == "tables":
        return _cmd_net_tables(args, log)

    if args.trials < 1:
        log.error("--trials must be at least 1 (got %d)", args.trials)
        return 2
    spec = _load_scenario(args.scenario, log)
    if spec is None:
        return 2
    _apply_store_flag(args)
    if args.control is not None:
        spec = spec.with_control(args.control)
    if args.medium is not None:
        spec = spec.with_medium(args.medium)
    # Reject an unknown --controller here so the error names the
    # available set before any sweep starts.
    if args.controller:
        from repro.ratectl import available_controllers

        if args.controller not in available_controllers():
            log.error(
                "unknown rate controller %r; available: %s",
                args.controller, ", ".join(available_controllers()),
            )
            return 2
        spec = spec.with_controller(args.controller)

    # Either observability export needs a NetLens riding every trial.
    lens = bool(args.ledger_out or args.trace_out)
    session = _open_trace(args.trace_out)
    try:
        results = run_scenario_sweep(
            spec, n_trials=args.trials, seed=args.seed, workers=args.workers,
            lens=lens,
        )
    finally:
        _close_trace(session, args.trace_out)

    summary = summarize_results(results)
    print_table(
        ["node", "goodput (Mbps)", "delivery ratio", "completion",
         "ctrl latency (us)", "mean SINR (dB)"],
        [
            (
                name,
                stats["goodput_mbps"],
                stats["delivery_ratio"],
                stats["completion_ratio"],
                stats["mean_control_latency_us"],
                stats["mean_sinr_db"],
            )
            for name, stats in summary["per_node"].items()
        ],
        title=(
            f"Scenario {summary['scenario']} [{summary['control']} control, "
            f"{summary['controller']} controller, "
            f"{summary['n_trials']} trial(s)] — aggregate "
            f"{summary['aggregate_goodput_mbps']:.3f} Mbps, fairness "
            f"{summary['fairness']:.3f}, collisions {summary['collisions']:.1f}, "
            f"ctrl airtime {summary['control_airtime_fraction'] * 100:.2f} %"
        ),
    )
    if args.json:
        _write_out(args.json, json.dumps(summary, indent=2) + "\n", "summary")
    if args.ledger_out:
        ledger = dict(results[0].ledger or {})
        ledger["scenario"] = summary["scenario"]
        ledger["control"] = summary["control"]
        _write_out(args.ledger_out, json.dumps(ledger, indent=2) + "\n",
                   "airtime ledger")
    return 0


def _cmd_link(args) -> int:
    from repro.channel import IndoorChannel
    from repro.cos import CosLink, EvmPredictor

    session = _open_trace(args.trace_out)

    channel = IndoorChannel.position(args.position, snr_db=args.snr, seed=args.seed)
    link = CosLink(channel=channel)
    if args.predictor:
        link.rx.predictor = EvmPredictor()
    try:
        stats = link.run(n_packets=args.packets, payload=bytes(args.payload))
    finally:
        _close_trace(session, args.trace_out)
    print(f"position {args.position} @ measured {args.snr} dB "
          f"(actual {channel.actual_snr_db:.1f} dB), {args.packets} packets")
    print(f"  data PRR:                 {stats.prr * 100:6.2f} %")
    print(f"  control (whole packet):   {stats.control_accuracy * 100:6.2f} %")
    print(f"  control (per message):    {stats.message_accuracy * 100:6.2f} %")
    print(f"  control bits delivered:   {stats.control_bits_delivered}")
    print(f"  silence symbols inserted: {stats.total_silences}")
    return 0


def _cmd_obs(args) -> int:
    import repro.obs as obs

    try:
        if args.obs_command == "timeline":
            print(obs.render_timeline(obs.read_jsonl(args.trace),
                                      width=args.width))
            return 0
        summary = obs.summarize_trace(args.trace)
    except ValueError as exc:  # a corrupt record or another schema version
        logging.getLogger("repro.cli").error("%s", exc)
        return 2
    if args.json:
        import dataclasses
        import json

        print(json.dumps({
            "stages": [dataclasses.asdict(s) for s in summary.stages],
            "causes": summary.causes,
            "n_spans": summary.n_spans,
            "n_events": summary.n_events,
            "events": summary.events,
            "exchange_total_s": summary.exchange_total_s,
            "exchange_coverage": summary.exchange_coverage,
        }, indent=2))
    else:
        print(obs.format_summary(summary))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level, quiet=args.quiet)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # stdout's reader went away (``repro link --trace-out - | head``):
        # stop quietly, with stdout on devnull so the exit flush cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args) -> int:
    if getattr(args, "workers", 0):
        from repro.engine import make_executor

        try:
            make_executor(args.workers)  # the engine's check of the count
        except ValueError as exc:
            logging.getLogger("repro.cli").error("%s", exc)
            return 2
    if args.command == "info":
        return _cmd_info()
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "link":
        return _cmd_link(args)
    if args.command == "net":
        return _cmd_net(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "report":
        from repro.analysis.report import write_report
        from repro.experiments.runner import select_stages

        try:
            select_stages(args.stages)
        except ValueError as exc:
            logging.getLogger("repro.cli").error("%s", exc)
            return 2
        _apply_store_flag(args)
        path = write_report(args.path, stages=args.stages, workers=args.workers)
        print(f"wrote {path}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
