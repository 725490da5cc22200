"""Result-store load test: warm-cache replay and kill-resume.

Two entry points:

* ``pytest benchmarks/bench_engine_fabric.py`` — pytest-benchmark record
  of warm-cache replay latency on a fig2-style sweep.

* ``python benchmarks/bench_engine_fabric.py --out BENCH_engine_fabric.json``
  — the CI perf-smoke.  Two hard gates:

  1. **warm_cache** — a repeated fig. 2 sweep served from the
     content-addressed result store must be at least ``--min-speedup``
     (default 10×) faster than the cold run that populated it, with
     byte-identical results.
  2. **kill_resume** — a sweep SIGKILLed mid-flight and re-run against
     the same store must complete while replaying every already-finished
     trial (store hits == entries present at kill time; zero
     recomputation).

Exits non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from repro.engine import core  # noqa: E402
from repro.engine.spec import make_specs  # noqa: E402
from repro.engine.store import ResultStore, set_default_store  # noqa: E402

#: fig2 realizations per grid point — sized so one cold sweep costs
#: O(1 s): large enough that a >=10x warm-replay gate is far from timer
#: noise, small enough for CI.
FIG2_REALIZATIONS = 120

MIN_WARM_SPEEDUP = 10.0

#: Kill-resume sweep: trials take ~SPIN_S each so SIGKILL reliably lands
#: mid-flight.
RESUME_TRIALS = 10
SPIN_S = 0.2


def _fig2_sweep(realizations: int = FIG2_REALIZATIONS):
    from repro.experiments import fig2

    return fig2.run(realizations=realizations)


def _spin_trial(spec):
    """Deterministic output, fixed wall cost — kill-window fuel."""
    rng = spec.rng()
    deadline = time.perf_counter() + SPIN_S
    while time.perf_counter() < deadline:
        pass
    return (spec["x"], float(rng.normal()))


def _resume_params() -> List[Dict]:
    return [{"x": i} for i in range(RESUME_TRIALS)]


def _canonical_self():
    """This module under its importable name (not ``__main__``).

    Cache keys and cross-process pickles embed the trial function's
    module path; running as a script would otherwise key everything
    under ``__main__`` and never match the kill-resume subprocess.
    """
    import bench_engine_fabric

    return bench_engine_fabric


def run_resume_sweep(store_dir: str) -> None:
    """The sweep the kill-resume gate interrupts (subprocess entry)."""
    mod = _canonical_self()
    core.run_trials(make_specs(mod._resume_params(), seed=21),
                    mod._spin_trial, store=ResultStore(store_dir))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def gate_warm_cache(min_speedup: float) -> Dict:
    with tempfile.TemporaryDirectory(prefix="fabric-store-") as d:
        store = ResultStore(d)
        set_default_store(store)
        try:
            t0 = time.perf_counter()
            cold_result = _fig2_sweep()
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm_result = _fig2_sweep()
            warm_s = time.perf_counter() - t0
        finally:
            set_default_store(None)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    identical = pickle.dumps(cold_result) == pickle.dumps(warm_result)
    return {
        "name": "warm_cache",
        "metric": f"repeated fig2 sweep ({FIG2_REALIZATIONS} realizations) "
                  "from the result store",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "measured_speedup": speedup,
        "min_speedup": min_speedup,
        "bit_identical": identical,
        "store_hits": store.hits,
        "passed": bool(identical and speedup >= min_speedup),
    }


def gate_kill_resume() -> Dict:
    mod = _canonical_self()
    with tempfile.TemporaryDirectory(prefix="fabric-resume-") as d:
        store_dir = os.path.join(d, "store")
        script = (
            "import sys; sys.path.insert(0, sys.argv[2]); "
            "import bench_engine_fabric as b; b.run_resume_sweep(sys.argv[1])"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, store_dir, _BENCH_DIR],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            n = len(list(Path(store_dir).glob("objects/*/*.pkl")))
            if n >= 3 or proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        n_before = len(list(Path(store_dir).glob("objects/*/*.pkl")))

        store = ResultStore(store_dir)
        resumed = core.run_trials(make_specs(mod._resume_params(), seed=21),
                                  mod._spin_trial, store=store)
        clean = core.run_trials(make_specs(mod._resume_params(), seed=21),
                                mod._spin_trial)
        identical = pickle.dumps(resumed) == pickle.dumps(clean)
        killed_mid_flight = 0 < n_before < RESUME_TRIALS
        zero_recompute = (store.hits == n_before
                          and store.writes == RESUME_TRIALS - n_before)
    return {
        "name": "kill_resume",
        "metric": "SIGKILL mid-sweep, resume from the result store",
        "n_trials": RESUME_TRIALS,
        "finished_before_kill": n_before,
        "store_hits_on_resume": store.hits,
        "recomputed": store.writes,
        "killed_mid_flight": killed_mid_flight,
        "bit_identical": identical,
        "passed": bool(killed_mid_flight and zero_recompute and identical),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(out_path: str, min_speedup: float) -> int:
    gates = []
    for fn in (lambda: gate_warm_cache(min_speedup), gate_kill_resume):
        gate = fn()
        gates.append(gate)
        status = "ok  " if gate["passed"] else "FAIL"
        detail = ""
        if "measured_speedup" in gate:
            detail = f"{gate['measured_speedup']:.1f}x (>= {min_speedup:.0f}x)"
        elif gate["name"] == "kill_resume":
            detail = (f"{gate['finished_before_kill']} cached + "
                      f"{gate['recomputed']} recomputed")
        print(f"{status} {gate['name']:<15s} {detail}")

    record = {
        "bench": "engine_fabric",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gates": gates,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")

    rc = 0
    for gate in gates:
        if not gate["passed"]:
            print(f"FAIL: gate {gate['name']}: {gate}", file=sys.stderr)
            rc = 1
    return rc


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_warm_cache_replay(benchmark, tmp_path):
    """Warm-replay latency of a small fig2 sweep, as a benchmark."""
    from repro.experiments import fig2

    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    try:
        cold = fig2.run(realizations=20)

        def _warm():
            return fig2.run(realizations=20)

        warm = benchmark.pedantic(_warm, rounds=5, iterations=1,
                                  warmup_rounds=1)
    finally:
        set_default_store(None)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    assert store.hits > 0
    benchmark.extra_info["store_hits"] = store.hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine_fabric.json",
                        help="JSON record path (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=MIN_WARM_SPEEDUP,
                        help="warm-cache replay gate (default: %(default)s)")
    args = parser.parse_args(argv)
    return run(args.out, args.min_speedup)


if __name__ == "__main__":
    sys.exit(main())
