"""The layered benchmark: five workloads, end-to-end metrics, per-layer trace.

Run from the repository root::

    python benchmarks/layers/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--scale full|smoke] [--trace [0|1]] [--out PATH]
        [--spans-out PATH]
    python benchmarks/layers/run.py prepare [--workload NAME ...] [--scale ...]
    python benchmarks/layers/run.py compare A/*.json -- B/*.json

Every workload runs in fresh processes of ``workloads.py`` with a cleaned
environment.  Untraced (the default), the end-to-end metrics of
``BENCHMARK.json`` are measured: set-up runs three times and ``setup_s``
is their median, and times are normalised to the host speed a
reference chunk measures after set-up and around each block (see
``end_to_end``).
With ``--trace`` (``--trace 1``) one process alternates
untraced blocks with blocks under the outside-in tracer, and the
per-layer metrics are reported.

Each metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A stamped record of the run is written to
``--out`` (default: ``.bench_build/layers/records/``).  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
WORKLOAD_SCRIPT = HERE / "workloads.py"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402  (stdlib-only at import; repro loads in children)

LAYERS = wl.layer_trace.LAYERS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"full": 3, "smoke": 1}
#: Wall-clock cap for the processes of one workload, so that a
#: one-workload invocation ends within three minutes.
DEADLINE_S = 170.0
#: Thread pools pinned to one thread, so that a sweep's two workers
#: stay within the machine's two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_cpu_ms": "ms",
    "cpu_ms_per_op": "ms",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """A child failed or the checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """Hermetic environment: no inherited ``REPRO_*``, one-thread BLAS,
    imports only from this checkout, caches and temp files in ``.bench_build``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update({var: "1" for var in THREAD_VARS})
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
        "REPRO_CEXT_CACHE": str(BUILD / "cext"),
        "TMPDIR": str(tmp),
    })
    return env


class Children:
    """Starts ``workloads.py`` processes under one deadline."""

    def __init__(self, deadline_s: float = DEADLINE_S) -> None:
        self.deadline = time.monotonic() + deadline_s
        self.env = child_env()

    def run(self, *args: str) -> Dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before starting a workload process")
        cmd = [sys.executable, str(WORKLOAD_SCRIPT), *args,
               "--spawned-at", repr(time.perf_counter())]
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            raise BenchError(f"workload process timed out: {' '.join(args)}") from None
        finally:
            _reap_group(proc.pid)
        lines = [line for line in stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload process failed (exit {proc.returncode}): {' '.join(args)}")
        return json.loads(lines[-1])


def _reap_group(pgid: int) -> None:
    """Kill anything left in a child's process group (e.g. orphaned workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):  # the group's processes are re-parented; wait for them
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _workload_args(name: str, args, *extra: str) -> List[str]:
    return ["--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--scale", args.scale, *extra]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(measured: Dict, setups: Sequence[Dict],
               normalised: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one untraced workload process.

    ``setups`` are the set-up processes' results (``measured`` among
    them).  ``normalised`` takes the time stolen by the hypervisor out of
    each block's wall-clock times and multiplies all its times (divides
    its rate), and each set-up time, by the host speed the reference
    chunk measured around it: the times a dedicated host that runs the
    chunk in ``REFERENCE_MS`` would have shown (see
    ``workloads.Reference``).  Otherwise they are as measured.
    """
    blocks = measured["blocks"]
    suffix = "_normalised" if normalised else ""

    def wall_s(block: Dict) -> float:
        return (block["wall_s"] - block["steal_s"]) * block["speed"] if normalised \
            else block["wall_s"]

    def cpu_s(block: Dict) -> float:
        return block["cpu_s"] * block["speed"] if normalised else block["cpu_s"]

    return {
        "ops_per_s": statistics.median(b["ops"] / wall_s(b) for b in blocks),
        "op_p50_ms": measured["latency" + suffix]["p50_ms"],
        "op_p90_cpu_ms": measured["service" + suffix]["p90_ms"],
        "cpu_ms_per_op": statistics.median(cpu_s(b) * 1e3 / b["ops"] for b in blocks),
        "success_ratio": (measured["delivered"] / measured["outcomes"]
                          if measured["outcomes"] else 1.0),
        "setup_s": statistics.median(s["setup_s"] * (s["setup_speed"] if normalised else 1.0)
                                     for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit (the catalogue)."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls_per_op"] = "1/op"
    units.update({
        "phy.rx.crc_fail_ratio": "ratio",
        "cos.control_loss_ratio": "ratio",
        "net.sinr.fail_ratio": "ratio",
        "net.medium.locally_busy.calls_per_op": "1/op",
        "net.topology.rx_power_dbm.calls_per_op": "1/op",
        "engine.store.key_for.share": "ratio",
        "engine.store.get.share": "ratio",
        "engine.store.put.share": "ratio",
        "engine.store.hit_ratio": "ratio",
        "engine.pool_starts_per_op": "1/op",
        "engine.worker_busy_share": "ratio",
        "trace.overhead": "ratio",
        "trace.calibrated_overhead": "ratio",
        "trace.unattributed_share": "ratio",
        "trace.call_cost_us": "us",
        "trace.traced_wall_s": "s",
    })
    return units


def per_layer(traced: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced workload process."""
    fold = traced["trace"]
    ops = fold["ops"]
    wall = fold["calibrated_wall_s"]
    layers = fold["layers"]
    callables = fold["callables"]
    counts = traced["counts"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s_calibrated": 0.0})
        out[f"{layer}.share"] = entry["self_s_calibrated"] / wall
        out[f"{layer}.calls_per_op"] = entry["calls"] / ops

    def calls(label: str) -> int:
        return callables.get(label, {}).get("calls", 0)

    def share(label: str) -> float:
        return callables.get(label, {}).get("self_s_calibrated", 0.0) / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    is_cos = traced["workload"] == wl.CosClosedLoop.name
    is_net = traced["kind"] == "net"
    outcomes = traced["outcomes"]
    blocks = traced["blocks"]
    untraced_per_op = statistics.median(b["wall_s"] / b["ops"] for b in blocks if not b["traced"])
    traced_per_op = statistics.median(b["wall_s"] / b["ops"] for b in blocks if b["traced"])
    calibrated_per_op = statistics.median(
        (b["wall_s"] - b["spans"] * fold["call_cost_s"]) / b["ops"] for b in blocks if b["traced"])
    out.update({
        "phy.rx.crc_fail_ratio": ratio(counts.get("crc_fail", 0), outcomes),
        "cos.control_loss_ratio": ratio(counts.get("control_loss", 0),
                                        counts.get("with_control", 0)) if is_cos else 0.0,
        "net.sinr.fail_ratio": 1.0 - ratio(traced["delivered"], outcomes) if is_net else 0.0,
        "net.medium.locally_busy.calls_per_op": calls("Medium.locally_busy") / ops,
        "net.topology.rx_power_dbm.calls_per_op": calls("Topology.rx_power_dbm") / ops,
        "engine.store.key_for.share": share("ResultStore.key_for"),
        "engine.store.get.share": share("ResultStore.get"),
        "engine.store.put.share": share("ResultStore.put"),
        "engine.store.hit_ratio": ratio(counts.get("store_hits", 0),
                                        counts.get("store_lookups", 0)),
        "engine.pool_starts_per_op": calls("ProcessExecutor.run") / ops,
        "engine.worker_busy_share": traced["children_cpu_s"] / (
            wl._Sweep.WORKERS * traced["block_wall_s"]),
        "trace.overhead": traced_per_op / untraced_per_op - 1.0,
        "trace.calibrated_overhead": calibrated_per_op / untraced_per_op - 1.0,
        "trace.unattributed_share": fold["unattributed_s_calibrated"] / wall,
        "trace.call_cost_us": fold["call_cost_s"] * 1e6,
        "trace.traced_wall_s": fold["wall_s"],
    })
    return out


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def measure_workload(children: Children, name: str, args) -> Dict:
    """All processes of one workload; returns its part of the record."""
    if args.trace:
        extra = ["--trace"]
        if args.spans_out:
            extra += ["--spans-out", _spans_path(args.spans_out, name, len(args.workload))]
        traced = children.run(*_workload_args(name, args, *extra))
        processes = [traced]
        metrics = per_layer(traced)
        extra = {}
        units = per_layer_units()
    else:
        setups = [children.run(*_workload_args(name, args, "--setup-only"))
                  for _ in range(SETUPS[args.scale] - 1)]
        measured = children.run(*_workload_args(name, args))
        setups.append(measured)
        processes = [measured]
        metrics = end_to_end(measured, setups)
        extra = {"as_measured": end_to_end(measured, setups, normalised=False),
                 "setups": [{k: s[k] for k in ("setup_s", "setup_speed")} for s in setups]}
        units = END_TO_END_UNITS
    return {
        **extra,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "processes": processes,
        "attempted": sum(p["ops"] for p in processes),
        "failed": sum(p["failed"] for p in processes),
        "correct": all(all(p["checks"].values()) for p in processes),
        "outputs_sha256": processes[0]["outputs_sha256"],
        "seed": args.seed,
    }


def _spans_path(base: str, workload: str, n_workloads: int) -> str:
    if n_workloads == 1:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{workload}{path.suffix}"))


def git_stamp() -> Dict:
    """Commit and dirty flag of the checkout (None outside a git repository)."""
    if not (ROOT / ".git").exists():  # git would search the directories above
        return {"commit": None, "dirty": None}

    def git(*cmd: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *cmd], cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": bool(status) if commit else None}


def stamp(args, versions: Dict) -> Dict:
    return {
        **git_stamp(),
        "machine": {"node": platform.node(), "arch": platform.machine()},
        "nproc": os.cpu_count(),
        **versions,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def require_source_tree() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro source tree under {ROOT / 'src'}; "
                         "run from a full checkout of the repository")


def cmd_run(args) -> int:
    require_source_tree()
    if not any((BUILD / "cext").glob("*.so")):
        Children().run("--probe")  # first run in this checkout: build the kernels
    workloads = {name: measure_workload(Children(), name, args) for name in args.workload}
    first = next(iter(workloads.values()))["processes"][-1]
    record = {"stamp": stamp(args, first["versions"]), "workloads": workloads}

    out = Path(args.out) if args.out else BUILD / "layers" / "records" / (
        f"{record['stamp']['utc'].replace(':', '')}-seed{args.seed}-"
        f"{'trace' if args.trace else 'e2e'}-{'+'.join(args.workload)}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    metrics: Dict[str, Dict] = {}
    for name, result in record["workloads"].items():
        for metric, value in result["metrics"].items():
            print(f"{name:16s} {metric:42s} {value['value']:.6g} {value['unit']}")
            key = metric if len(args.workload) == 1 else f"{name}.{metric}"
            metrics[key] = value
        checks = {k: v for p in result["processes"] for k, v in p["checks"].items()}
        print(f"{name:16s} checks {checks} outputs_sha256 {result['outputs_sha256']}")
    print(f"record: {out}")
    results = record["workloads"].values()
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def cmd_prepare(args) -> int:
    """Fill the compile cache and run each set-up once, untimed."""
    require_source_tree()
    children = Children(deadline_s=900.0)
    print(f"kernel backend: {children.run('--probe')['kernel_backend']}")
    for name in args.workload:
        result = children.run(*_workload_args(name, args, "--setup-only"))
        print(f"{name}: set-up {result['setup_s']:.2f} s")
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` for B against A.

    Returns the verdict, B's change of median relative to A (positive is
    an improvement) and B's share of wins over alternating A/B pairs.
    """
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = _quartiles(a), _quartiles(b)
    gain = sign * (qb[1] - qa[1]) / qa[1]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if spread > bound and not (all_better or all_worse):
        return "unresolved", gain, wins
    if gain < -bound:
        return "worse", gain, wins
    if gain > 0 and wins >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better", gain, wins
    return "same", gain, wins


def _load_records(paths: Sequence[str]) -> List[Dict]:
    records = []
    for path in paths:
        try:
            record = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read record {path}: {exc}") from None
        if not isinstance(record, dict) or not {"stamp", "workloads"} <= record.keys():
            raise BenchError(f"{path} is not a benchmark record")
        records.append(record)
    return [r for r in records if not r["stamp"]["trace"]]


def cmd_compare(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare A/*.json -- B/*.json", file=sys.stderr)
        return 2
    split = list(argv).index("--")
    side_a, side_b = _load_records(argv[:split]), _load_records(argv[split + 1:])
    if not side_a or not side_b:
        print("compare: each side needs at least one untraced record", file=sys.stderr)
        return 2
    keys = {(json.dumps(r["stamp"]["machine"], sort_keys=True), r["stamp"]["kernel_backend"])
            for r in side_a + side_b}
    if len(keys) > 1:
        print(f"compare: records differ in machine or kernel backend: {sorted(keys)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"A: {len(side_a)} records  B: {len(side_b)} records")
    print(f"{'workload':16s} {'metric':14s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s} {'wins':>5s}  verdict")
    any_worse = False
    for name in workloads:
        runs_a = [r["workloads"][name] for r in side_a if name in r["workloads"]]
        runs_b = [r["workloads"][name] for r in side_b if name in r["workloads"]]
        if not runs_a or not runs_b:
            continue
        for metric, meta in bounds.items():
            a = [r["metrics"][metric]["value"] for r in runs_a]
            b = [r["metrics"][metric]["value"] for r in runs_b]
            result, gain, wins = verdict(a, b, meta["better"], meta["bound"])
            any_worse |= result == "worse"
            qa, qb = _quartiles(a), _quartiles(b)
            print(f"{name:16s} {metric:14s} "
                  f"{qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"{gain * 100:>+7.2f}% {meta['bound'] * 100:>5.1f}% {wins:>5.2f}  {result}")
        digests_a = {r["seed"]: r["outputs_sha256"] for r in runs_a}
        digests_b = {r["seed"]: r["outputs_sha256"] for r in runs_b}
        common = sorted(set(digests_a) & set(digests_b))
        equal = sum(digests_a[s] == digests_b[s] for s in common)
        print(f"{name:16s} outputs_sha256 equal on {equal}/{len(common)} common seeds; "
              "a claimed gain needs B to win >= 0.90 of the pairs")
    return 1 if any_worse else 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _trace_flag(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(text)


def parse_args(argv: Sequence[str], prepare: bool = False) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py" + (" prepare" if prepare else ""),
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(wl.WORKLOADS),
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default 25, smoke 0.2)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    if not prepare:
        parser.add_argument("--trace", type=_trace_flag, nargs="?", const=1, default=0,
                            help="run under the layer tracer and report per-layer metrics")
        parser.add_argument("--out", default=None, help="path of the JSON record")
        parser.add_argument("--spans-out", default=None,
                            help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(wl.WORKLOADS)
    if args.seconds is None:
        args.seconds = 25.0 if args.scale == "full" else 0.2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["compare"]:
            return cmd_compare(argv[1:])
        if argv[:1] == ["prepare"]:
            return cmd_prepare(parse_args(argv[1:], prepare=True))
        return cmd_run(parse_args(argv))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
