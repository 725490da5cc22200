"""Perf gates: one runner, one bounds table, one stamped record.

Run from the repository root::

    python benchmarks/gates.py [kernels|phy-batch|net-scaling|store|pool|obs ...]
        [--out BENCH_gates.json]

With no group named, every group runs.  Each gate measures one quantity
on a code path the paper's results rest on and compares it with its
bound in :data:`BOUNDS`:

* ``kernels`` — the ``cext`` Viterbi under every CoS exchange, against
  the always-available ``numpy`` backend in the same process;
* ``phy-batch`` — the batched receive that measures the surrogate
  table, and the table's fitted PRR against freshly re-measured PHY
  PRR;
* ``net-scaling`` — scheduler throughput of the culled medium over
  ``enterprise-grid`` at N = 16…1024 and on an 8-station ``contention``
  cell, and its speedup over the all-pairs ``dense-exact`` medium;
* ``store`` — warm replay and kill-resume through the result store;
* ``pool`` — a 4-worker process pool against serial on one PHY sweep;
* ``obs`` — disabled and enabled span cost, and the cost of the net-lens
  hook sites with no lens attached.

Every timed bound is a ratio of two timings taken in one process, or an
absolute bound far from the measured value, so CI runners of any speed
give a stable signal; absolute timings are kept in each gate's ``detail``.
The record written to ``--out`` is::

    {"schema": 1, "stamp": {...},
     "gates": [{group, name, metric, measured, bound, better, passed,
                detail}, ...]}

The exit code is 1 when any gate fails or cannot run (a group that
cannot run, e.g. ``kernels`` without a C compiler, adds one entry whose
``detail.error`` names the cause); each failure is also printed to
standard error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import operator
import os
import pickle
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from layers.run import git_stamp  # noqa: E402

SCHEMA = 1


class Bound(NamedTuple):
    metric: str
    op: str  # one of OPS
    value: float


OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

#: Every gate's bound.  Timed bounds are relative or deliberately loose
#: absolute bounds: each catches an order-of-magnitude regression (a fast
#: path that no longer engages, a medium scan gone quadratic), not runner
#: noise.
BOUNDS: Dict[Tuple[str, str], Bound] = {
    ("kernels", "viterbi_4096"): Bound("cext/numpy speedup", ">=", 1.5),
    ("phy-batch", "receive_batch64"): Bound(
        "looped receive / receive_many time at batch 64, numpy backend", ">=", 3.0),
    ("phy-batch", "surrogate_prr_match"): Bound(
        "max |table - measured| PRR on the check nodes", "<=", 0.02),
    # Culled per-event cost is nearly flat in N and every point clears
    # 12k events/s on a 2-vCPU x86_64 host; an accidentally quadratic
    # medium lands far lower (dense-exact manages ~1k at N = 256).
    ("net-scaling", "culled_n16"): Bound("culled events/s", ">=", 2_000.0),
    ("net-scaling", "culled_n64"): Bound("culled events/s", ">=", 2_000.0),
    ("net-scaling", "culled_n256"): Bound("culled events/s", ">=", 2_000.0),
    ("net-scaling", "culled_n1024"): Bound("culled events/s", ">=", 2_000.0),
    ("net-scaling", "culled_contention"): Bound("culled events/s", ">", 2_000.0),
    ("net-scaling", "culled_vs_dense_n256"): Bound(
        "culled/dense-exact events/s at N = 256", ">=", 2.0),
    ("store", "warm_cache"): Bound("cold/warm fig2 sweep time", ">=", 10.0),
    ("store", "kill_resume"): Bound(
        "finished trials recomputed after SIGKILL", "<=", 0),
    # The pool can only beat serial with cores to spread over; with
    # fewer than POOL_WORKERS it may only not be pathologically slow.
    ("pool", "pool_speedup"): Bound("serial/4-worker sweep time", ">=", 1.8),
    ("pool", "pool_speedup_few_cores"): Bound(
        "serial/4-worker sweep time, < 4 cores", ">=", 0.4),
    ("obs", "noop_span"): Bound("disabled span() enter/exit, us", "<", 1.0),
    ("obs", "enabled_span"): Bound("enabled span() enter/exit, us", "<", 50.0),
    ("obs", "lens_disabled_share"): Bound(
        "disabled net-lens hook checks / run wall time", "<", 0.03),
}


class GateError(RuntimeError):
    """A gate cannot run or its fixture is broken; the message says why."""


class Reading(NamedTuple):
    """One gate's measurement, before it is judged against its bound."""

    name: str
    measured: float
    detail: Dict
    checks: Dict[str, bool] = {}


def best_of(fn: Callable[[], object], repeats: int = 1, iters: int = 1,
            warmup: int = 0) -> Tuple[float, object]:
    """Best mean seconds per call over ``repeats`` rounds of ``iters`` calls.

    ``warmup`` untimed calls go first.  Returns the time and the result
    of the last call.  ``repeats=1`` times only the last of
    ``warmup + 1`` calls: pytest-benchmark's ``pedantic`` statistic,
    which the gates that assert on the last round keep.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            result = fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best, result


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _importable_self():
    """This module under its importable name, not ``__main__``.

    Store keys and pool pickles name a trial function by its module, and
    the kill-resume subprocess imports this file as ``gates``; run as a
    script, the functions would otherwise live under ``__main__``.
    """
    import gates

    return gates


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernels() -> Iterator[Reading]:
    """Each workload under ``numpy`` and ``cext``; the gate is ``viterbi_4096``."""
    import numpy as np

    from repro.channel import IndoorChannel
    from repro.kernels import available_backends, decode_many, use_backend
    from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
    from repro.phy.convcode import conv_encode
    from repro.phy.viterbi import ViterbiDecoder, hard_bits_to_llrs

    if "cext" not in available_backends():
        raise GateError("no C compiler found: the cext backend is unavailable, "
                        "so there is no fast path to gate against numpy")
    info = np.random.default_rng(0).integers(0, 2, 4096, dtype=np.uint8)
    llrs = hard_bits_to_llrs(conv_encode(info)).astype(np.float64)
    batch = [llrs[: 2 * 512].copy() for _ in range(16)]
    frame = Transmitter().transmit(build_mpdu(bytes(range(256)) * 2), RATE_TABLE[24])
    waveform = IndoorChannel.position("B", snr_db=20.0, seed=1).transmit(frame.waveform)
    rx = Receiver()
    observation = rx.observe(waveform)  # backend-independent front end, done once
    workloads = {
        "viterbi_4096": lambda: ViterbiDecoder(terminated=False).decode(llrs),
        "decode_many_16x512": lambda: decode_many(batch),
        "packet_decode_24mbps": lambda: rx.decode(observation),
        "packet_receive_24mbps": lambda: rx.receive(waveform),
    }
    ms: Dict[str, Dict[str, float]] = {name: {} for name in workloads}
    for backend in ("numpy", "cext"):
        with use_backend(backend) as be:
            be.prewarm()
            for name, fn in workloads.items():
                ms[name][f"{backend}_ms"] = 1e3 * best_of(fn, repeats=5, iters=10,
                                                          warmup=1)[0]
    for entry in ms.values():
        entry["speedup"] = entry["numpy_ms"] / entry["cext_ms"]
    yield Reading("viterbi_4096", ms["viterbi_4096"]["speedup"], ms)


# ---------------------------------------------------------------------------
# phy-batch
# ---------------------------------------------------------------------------

#: Batch size of the batched-receive gate.
BATCH = 64

#: (rate Mbps, SINR dB) grid nodes of the PRR-match gate: one per
#: modulation family, each near its waterfall knee, where a surrogate
#: that diverged from the PHY would change frame fates.
PRR_CHECK_NODES = ((6, 4.0), (24, 14.0), (54, 22.0))


def phy_batch() -> Iterator[Reading]:
    """Batched receive and surrogate PRR fidelity."""
    import numpy as np

    from repro.channel import IndoorChannel
    from repro.kernels import use_backend
    from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
    from repro.phy.surrogate import load_default_table, measure_prr_point

    # Numpy backend, so the speedup comes from batching, not the C kernel.
    with use_backend("numpy") as be:
        be.prewarm()
        tx = Transmitter()
        psdu = build_mpdu(bytes(range(256)))
        channel = IndoorChannel.position("A", snr_db=20.0, seed=3)
        waves = []
        for _ in range(BATCH):
            channel.evolve(1e-3)
            waves.append(channel.transmit(tx.transmit(psdu, RATE_TABLE[24]).waveform))
        waves = np.stack(waves)
        rx = Receiver()
        looped_s, looped = best_of(lambda: [rx.receive(w) for w in waves],
                                   repeats=5, warmup=1)
        batched_s, batched = best_of(lambda: rx.receive_many(waves), repeats=5,
                                     warmup=1)
    yield Reading(
        "receive_batch64", looped_s / batched_s,
        {"batch": BATCH, "looped_ms": 1e3 * looped_s, "batched_ms": 1e3 * batched_s},
        {"batched_ok_equals_looped": [r.ok for r in looped] == [r.ok for r in batched]},
    )

    table = load_default_table()
    ts = table.spec
    nodes = []
    for mbps, sinr_db in PRR_CHECK_NODES:
        measured = float(np.mean([
            measure_prr_point(ts.position, sinr_db, mbps, ts.n_packets,
                              ts.payload_octets, seed)
            for seed in ts.channel_seeds
        ]))
        fitted = table.prr(sinr_db, mbps)
        nodes.append({"rate_mbps": mbps, "sinr_db": sinr_db, "table_prr": fitted,
                      "measured_prr": measured, "abs_error": abs(fitted - measured)})
    yield Reading("surrogate_prr_match", max(n["abs_error"] for n in nodes),
                  {"table_hash": table.spec_hash, "nodes": nodes})


# ---------------------------------------------------------------------------
# net-scaling
# ---------------------------------------------------------------------------

#: Total node counts of the sweep (each cell is 1 AP + 15 stations).
NODE_COUNTS = (16, 64, 256, 1024)

#: Largest N the all-pairs dense-exact medium runs at; beyond it, its
#: quadratic per-attempt cost is the point, not a number CI should wait for.
DENSE_MAX_NODES = 256


def _net_point(spec) -> Dict:
    """Events/s of one plain run, and where the time went in a traced one.

    The rate is timed with no lens and no tracer on a cold source-map
    memo: it is cleared first, so the timed run builds every map it
    uses, as the first run of ``spec`` in a process does.  The
    per-callback detail comes from the ``net.*`` dispatch spans of a
    second, traced run, read the way ``repro obs summarize`` reads them.
    That run is on the warm memo the first one left, so its ``hottest``
    callbacks leave out the map builds, as do the traced runs of
    ``culled_contention``'s rounds (each of whose timed runs is cold).
    """
    from repro.net import run_scenario
    from repro.net.simulator import clear_source_maps
    from repro.obs import MemorySink, summarize_events, tracing

    clear_source_maps()
    wall_s, result = best_of(lambda: run_scenario(spec, rng=0))
    sink = MemorySink()
    with tracing(sink):
        run_scenario(spec, rng=0)
    # Every ``net.*`` span but ``net.scenario`` times one dispatched callback.
    callbacks = [s for s in summarize_events(sink.events).stages
                 if s.name.startswith("net.") and s.name != "net.scenario"]
    # The reception decision (SINR and carrier-state fan-out at each
    # transmission end): the per-attempt cost culling bounds.
    rx_cost = next((s for s in callbacks if s.name == "net.Medium._end"), None)
    hottest = sorted(callbacks, key=lambda s: -s.total_s)[:3]
    return {
        "scenario": spec.name,
        "medium_mode": spec.medium_mode,
        "n_nodes": len(spec.nodes),
        "n_events": result.n_events,
        "wall_s": wall_s,
        "events_per_sec": result.n_events / wall_s,
        "sim_wall_ratio": result.duration_us / (wall_s * 1e6),
        "rx_cost_mean_us": rx_cost.mean_s * 1e6 if rx_cost else None,
        "rx_cost_p95_us": rx_cost.p95_s * 1e6 if rx_cost else None,
        "goodput_mbps": result.aggregate_goodput_mbps,
        "hottest": {s.name: s.total_s for s in hottest},
    }


def net_scaling() -> Iterator[Reading]:
    """Culled events/s over the grid and on contention; culled vs dense."""
    from repro.net import builtin_scenario

    def grid(n: int, mode: str):
        return builtin_scenario("enterprise-grid", n_aps=max(1, n // 16),
                                stations_per_ap=15, duration_us=100_000.0,
                                medium_mode=mode)

    culled = {}
    for n in NODE_COUNTS:
        culled[n] = point = _net_point(grid(n, "culled"))
        yield Reading(f"culled_n{n}", point["events_per_sec"], point)
    dense = [_net_point(grid(n, "dense-exact"))
             for n in NODE_COUNTS if n <= DENSE_MAX_NODES]
    yield Reading(
        f"culled_vs_dense_n{DENSE_MAX_NODES}",
        culled[DENSE_MAX_NODES]["events_per_sec"] / dense[-1]["events_per_sec"],
        {"dense_exact": dense},
    )

    spec = builtin_scenario("contention", n_stations=8, n_packets=40,
                            duration_us=200_000.0)
    for _ in range(3):  # one warm-up run, then three rounds judged on the last
        _net_point(spec)
    last = _net_point(spec)
    yield Reading("culled_contention", last["events_per_sec"], last)


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

#: fig2 realizations per grid point: one cold sweep costs O(1 s), far
#: from timer noise at a 10x replay bound, and short enough for CI.
FIG2_REALIZATIONS = 120

#: Kill-resume sweep: each trial spins SPIN_S so SIGKILL lands mid-flight.
RESUME_TRIALS = 10
SPIN_S = 0.2

#: Pool-speedup sweep: one probe packet through the full PHY per trial.
POOL_TRIALS = 24
POOL_WORKERS = 4


def _spin_trial(spec):
    """Deterministic output at a fixed wall cost: kill-window fuel."""
    rng = spec.rng()
    deadline = time.perf_counter() + SPIN_S
    while time.perf_counter() < deadline:
        pass
    return (spec["x"], float(rng.normal()))


def _resume_sweep(result_store=None):
    from repro.engine import core
    from repro.engine.spec import make_specs

    mod = _importable_self()
    return core.run_trials(make_specs([{"x": i} for i in range(RESUME_TRIALS)], seed=21),
                           mod._spin_trial, store=result_store)


def run_resume_sweep(store_dir: str) -> None:
    """The sweep the kill-resume gate interrupts (subprocess entry)."""
    from repro.engine.store import ResultStore

    _resume_sweep(ResultStore(store_dir))


def _pool_trial(spec):
    """One probe packet through the full PHY, the harnesses' typical trial."""
    from repro.experiments.common import ExperimentConfig, send_probe_packets
    from repro.phy import RATE_TABLE

    channel = ExperimentConfig().channel(spec["snr_db"], seed_offset=spec["r"])
    ((frame, result),) = send_probe_packets(channel, RATE_TABLE[24], 1)
    return bool(result.ok), len(frame.coded_bits)


def store() -> Iterator[Reading]:
    """Warm replay and kill-resume through the result store."""
    from repro.engine.store import ResultStore, set_default_store

    def fig2_sweep():
        # The cold run includes the first import of the harness and the PHY.
        from repro.experiments import fig2

        return fig2.run(realizations=FIG2_REALIZATIONS)

    with tempfile.TemporaryDirectory(prefix="gates-store-") as d:
        warm_store = ResultStore(d)
        set_default_store(warm_store)
        try:
            cold_s, cold = best_of(fig2_sweep)
            warm_s, warm = best_of(fig2_sweep)
        finally:
            set_default_store(None)
    yield Reading(
        "warm_cache", cold_s / warm_s,
        {"realizations": FIG2_REALIZATIONS, "cold_s": cold_s, "warm_s": warm_s,
         "store_hits": warm_store.hits},
        {"bit_identical": pickle.dumps(cold) == pickle.dumps(warm)},
    )

    with tempfile.TemporaryDirectory(prefix="gates-resume-") as d:
        store_dir = os.path.join(d, "store")
        script = ("import sys; sys.path.insert(0, sys.argv[2]); "
                  "import gates; gates.run_resume_sweep(sys.argv[1])")
        proc = subprocess.Popen([sys.executable, "-c", script, store_dir, str(HERE)],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        def n_stored() -> int:
            return len(list(Path(store_dir).glob("objects/*/*.pkl")))

        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and n_stored() < 3 and proc.poll() is None:
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        n_before = n_stored()
        resume_store = ResultStore(store_dir)
        resumed = _resume_sweep(resume_store)
        clean = _resume_sweep()
    yield Reading(
        "kill_resume", n_before - resume_store.hits,
        {"n_trials": RESUME_TRIALS, "finished_before_kill": n_before,
         "store_hits_on_resume": resume_store.hits,
         "computed_on_resume": resume_store.writes},
        {"killed_mid_flight": 0 < n_before < RESUME_TRIALS,
         "computed_only_the_rest": resume_store.writes == RESUME_TRIALS - n_before,
         "bit_identical": pickle.dumps(resumed) == pickle.dumps(clean)},
    )


def pool() -> Iterator[Reading]:
    """The 4-worker pool against serial on one sweep; results must match."""
    from repro import engine
    from repro.experiments.common import init_phy_worker, phy_pair

    mod = _importable_self()
    params = [{"snr_db": 14.0 + (i % 6), "r": i} for i in range(POOL_TRIALS)]
    phy_pair()  # build the serial path's PHY pair outside the timing

    def sweep(workers: int):
        return engine.run_sweep(params, mod._pool_trial, seed=11, workers=workers,
                                init=init_phy_worker, label="gates.pool")

    serial_s, serial = best_of(lambda: sweep(0))
    pool_s, pooled = best_of(lambda: sweep(POOL_WORKERS))
    cores = _cpu_count()
    yield Reading(
        "pool_speedup" if cores >= POOL_WORKERS else "pool_speedup_few_cores",
        serial_s / pool_s,
        {"n_trials": POOL_TRIALS, "workers": POOL_WORKERS, "cores": cores,
         "serial_s": serial_s, "pool_s": pool_s},
        {"serial_equals_pool": serial == pooled},
    )


# ---------------------------------------------------------------------------
# obs
# ---------------------------------------------------------------------------

#: Fewer hook checks than this on the ``contention`` run means the hook
#: sites were not counted, so the share gate would price nothing.
MIN_LENS_CHECKS = 1000


class _CountingLens:
    """Counts net-lens hook invocations and does nothing else.

    Duck-types the :class:`repro.net.lens.NetLens` hook surface, so the
    simulator wires it wherever a real lens goes: the count is the exact
    number of ``is None`` checks the disabled path takes on the same run.
    """

    events = ()

    def __init__(self):
        self.n_hooks = 0

    def bind(self, node_names, bss_of=None):
        pass

    def finalize(self, end_us):
        pass

    def ledger_dict(self):
        return None

    def _hook(self, *args):
        self.n_hooks += 1

    on_tx_start = on_tx_end = on_channel_state = on_backoff = _hook
    on_drop = on_deliver = on_control_generated = on_control_delivered = _hook
    on_rate_selected = _hook


def _span_loop(n: int) -> None:
    from repro.obs.trace import span

    for _ in range(n):
        with span("bench.noop"):
            pass


def _is_none_loop(n: int) -> int:
    """``n`` attribute loads and ``is None`` branches: one hook site's cost."""

    class _Holder:
        lens = None

    holder = _Holder()
    acc = 0
    for _ in range(n):
        if holder.lens is not None:
            acc += 1
    return acc


def obs() -> Iterator[Reading]:
    """Disabled and enabled span cost, and disabled net-lens hook cost."""
    import repro.obs as repro_obs
    from repro.net import builtin_scenario, run_scenario
    from repro.obs import trace as trace_mod

    if trace_mod.current_tracer() is not None:
        raise GateError("a tracer is active: the disabled-span gate needs tracing off")
    # The span and ``is None`` timings are judged on the last of three
    # rounds after one warm-up, so a slow round is not hidden by a fast
    # one; the disabled run time is the best of three.
    n = 100_000
    per_span_s = best_of(lambda: _span_loop(n), warmup=3)[0] / n
    yield Reading("noop_span", per_span_s * 1e6, {"n_spans": n})

    session = repro_obs.configure(trace_out=repro_obs.NullSink())
    try:
        n = 20_000
        per_span_s = best_of(lambda: _span_loop(n), warmup=3)[0] / n
    finally:
        session.close()
    yield Reading("enabled_span", per_span_s * 1e6, {"n_spans": n},
                  {"tracer_closed": trace_mod.current_tracer() is None})

    spec = builtin_scenario("contention", n_stations=6, n_packets=40,
                            duration_us=200_000.0)
    # Every counted hook is one ``lens is None`` site; the scheduler's
    # untraced loop checks nothing per event.
    counting = _CountingLens()
    run_scenario(spec, rng=0, lens=counting)
    n_checks = counting.n_hooks
    disabled_s = best_of(lambda: run_scenario(spec, rng=0), repeats=3)[0]
    n = 200_000
    per_check_s = best_of(lambda: _is_none_loop(n), warmup=3)[0] / n
    yield Reading("lens_disabled_share", n_checks * per_check_s / disabled_s,
                  {"n_checks": n_checks, "per_check_ns": per_check_s * 1e9,
                   "disabled_run_s": disabled_s},
                  {"n_checks_over_1000": n_checks > MIN_LENS_CHECKS})


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

GROUPS: Dict[str, Callable[[], Iterator[Reading]]] = {
    "kernels": kernels,
    "phy-batch": phy_batch,
    "net-scaling": net_scaling,
    "store": store,
    "pool": pool,
    "obs": obs,
}


def judge(group: str, reading: Reading) -> Dict:
    """One gate of the record: ``reading`` against its bound."""
    bound = BOUNDS[group, reading.name]
    detail = dict(reading.detail)
    if reading.checks:
        detail["checks"] = dict(reading.checks)
    return {
        "group": group,
        "name": reading.name,
        "metric": bound.metric,
        "measured": reading.measured,
        "bound": bound.value,
        "better": "higher" if bound.op in (">", ">=") else "lower",
        "passed": bool(OPS[bound.op](reading.measured, bound.value)
                       and all(reading.checks.values())),
        "detail": detail,
    }


def stamp() -> Dict:
    import numpy

    from repro.kernels import backend_name

    return {
        **git_stamp(),
        "machine": {"node": platform.node(), "arch": platform.machine()},
        "nproc": os.cpu_count(),
        "cores": _cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend_name(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _report(gate: Dict) -> None:
    if "error" in gate["detail"]:
        print(f"FAIL {gate['group']}: cannot run: {gate['detail']['error']}",
              file=sys.stderr)
        return
    key = f"{gate['group']}/{gate['name']}"
    bound = BOUNDS[gate["group"], gate["name"]]
    line = f"{key:<34s} {gate['measured']:.4g} {bound.op} {bound.value:g}  ({bound.metric})"
    failed = [k for k, ok in gate["detail"].get("checks", {}).items() if not ok]
    if failed:
        line += f"; failed checks: {', '.join(failed)}"
    if gate["passed"]:
        print(f"PASS {line}")
    else:
        print(f"FAIL {line}", file=sys.stderr)


def run_gates(groups: Sequence[str], out_path: str) -> int:
    """Run ``groups`` in order, write the record to ``out_path``; 0 iff all pass."""
    gates: List[Dict] = []
    for group in groups:
        try:
            for reading in GROUPS[group]():
                gates.append(judge(group, reading))
                _report(gates[-1])
        except GateError as exc:
            gates.append({"group": group, "name": None, "metric": None,
                          "measured": None, "bound": None, "better": None,
                          "passed": False, "detail": {"error": str(exc)}})
            _report(gates[-1])
    record = {"schema": SCHEMA, "stamp": stamp(), "gates": gates}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    failed = [g for g in gates if not g["passed"]]
    if failed:
        print(f"{len(failed)} of {len(gates)} gates failed", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help=f"gate groups to run, of {', '.join(GROUPS)} "
                             "(default: all)")
    parser.add_argument("--out", default="BENCH_gates.json",
                        help="record path (default: %(default)s)")
    args = parser.parse_args(argv)
    unknown = [g for g in args.groups if g not in GROUPS]
    if unknown:
        parser.error(f"unknown group(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(GROUPS)}")
    groups = list(dict.fromkeys(args.groups)) or list(GROUPS)
    return run_gates(groups, args.out)


if __name__ == "__main__":
    sys.exit(main())
