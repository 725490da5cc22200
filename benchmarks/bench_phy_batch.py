"""Batch receive path + PRR surrogate perf-smoke.

Two entry points:

* ``pytest benchmarks/bench_phy_batch.py`` — pytest-benchmark
  comparisons of looped :meth:`Receiver.receive` against
  :meth:`Receiver.receive_many` on a same-spec batch.

* ``python benchmarks/bench_phy_batch.py --json BENCH_phy_batch.json``
  — the CI perf-smoke.  Three gates, all relative (same process, same
  machine), so CI runners of any speed give a stable signal:

  1. ``receive_batch64``: ``receive_many`` over 64 same-spec packets
     must run >= ``--min-speedup`` (default 3x) faster than looping
     ``receive`` — measured on the **numpy** backend, so the win comes
     from batching, not from the C kernel.
  2. ``net_256_surrogate``: a 256-node ``repro net run`` under
     ``cos_fidelity="surrogate"`` must finish within ``--max-slowdown``
     (default 1.2x) of the analytic ``table`` mode — measured fidelity
     may not price the network layer out of scale.
  3. ``surrogate_prr_match``: the committed table's fitted PRR must stay
     within ``--max-prr-err`` (default 0.02) of freshly re-measured
     real-PHY PRR on spot-checked grid nodes.

See ``docs/performance.md`` ("Batch receiver & PRR surrogates").
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict

import numpy as np

from repro.channel import IndoorChannel
from repro.kernels import use_backend
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu

BATCH = 64

#: Spot-checked (rate Mbps, SINR dB) grid nodes for the PRR-match gate —
#: one per modulation family, each near its waterfall knee where a
#: surrogate/live divergence would actually change frame fates.
PRR_CHECK_NODES = ((6, 4.0), (24, 14.0), (54, 22.0))


def _batch_fixture(n_pkts: int = BATCH, mbps: int = 24, snr_db: float = 20.0):
    rate = RATE_TABLE[mbps]
    tx = Transmitter()
    psdu = build_mpdu(bytes(range(256)))
    channel = IndoorChannel.position("A", snr_db=snr_db, seed=3)
    waves = []
    for _ in range(n_pkts):
        channel.evolve(1e-3)
        frame = tx.transmit(psdu, rate)
        waves.append(channel.transmit(frame.waveform))
    return Receiver(), np.stack(waves)


def _time_ms(fn, repeats: int = 5, iters: int = 1) -> float:
    """Best-of-``repeats``: robust to CI-runner noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best * 1e3


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def test_receive_looped_batch64(benchmark):
    rx, waves = _batch_fixture()
    results = benchmark(lambda: [rx.receive(w) for w in waves])
    assert all(r.ok for r in results)


def test_receive_many_batch64(benchmark):
    rx, waves = _batch_fixture()
    results = benchmark(lambda: rx.receive_many(waves))
    assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# Script mode: BENCH_phy_batch.json + the three gates
# ---------------------------------------------------------------------------


def _gate_receive_batch(min_speedup: float) -> Dict:
    """Gate 1: batched vs looped receive on the numpy backend."""
    with use_backend("numpy") as be:
        be.prewarm()
        rx, waves = _batch_fixture()
        looped = [rx.receive(w) for w in waves]  # warm every cache
        batched = rx.receive_many(waves)
        assert all(s.ok == b.ok for s, b in zip(looped, batched))
        looped_ms = _time_ms(lambda: [rx.receive(w) for w in waves])
        batched_ms = _time_ms(lambda: rx.receive_many(waves))
    speedup = looped_ms / batched_ms
    return {
        "name": "receive_batch64",
        "metric": "receive_many vs looped receive, numpy backend",
        "batch": BATCH,
        "looped_ms": looped_ms,
        "batched_ms": batched_ms,
        "min_speedup": min_speedup,
        "measured_speedup": speedup,
        "passed": speedup >= min_speedup,
    }


def _gate_net_scale(max_slowdown: float) -> Dict:
    """Gate 2: 256-node scenario, surrogate vs analytic-table fidelity."""
    from repro.net import run_scenario_sweep
    from repro.net.scenarios import enterprise_grid
    from repro.net.sinr import SinrModel

    spec = enterprise_grid(n_aps=16, stations_per_ap=15,
                           duration_us=100_000.0)
    assert len(spec.nodes) == 256
    SinrModel.default()  # load the table outside the timed region
    times = {}
    for fidelity in ("table", "surrogate"):
        variant = spec.with_fidelity(fidelity)
        run_scenario_sweep(variant, n_trials=1, seed=1)  # warm
        times[fidelity] = _time_ms(
            lambda v=variant: run_scenario_sweep(v, n_trials=1, seed=1),
            repeats=3,
        )
    slowdown = times["surrogate"] / times["table"]
    return {
        "name": "net_256_surrogate",
        "metric": "256-node net run, surrogate vs table fidelity",
        "nodes": len(spec.nodes),
        "table_ms": times["table"],
        "surrogate_ms": times["surrogate"],
        "max_slowdown": max_slowdown,
        "measured_slowdown": slowdown,
        "passed": slowdown <= max_slowdown,
    }


def _gate_prr_match(max_err: float) -> Dict:
    """Gate 3: committed table vs freshly re-measured real-PHY PRR."""
    from repro.phy.surrogate import load_default_table, measure_prr_point

    table = load_default_table()
    spec = table.spec
    nodes = []
    worst = 0.0
    for mbps, sinr_db in PRR_CHECK_NODES:
        measured = float(np.mean([
            measure_prr_point(spec.position, sinr_db, mbps, spec.n_packets,
                              spec.payload_octets, seed)
            for seed in spec.channel_seeds
        ]))
        fitted = table.prr(sinr_db, mbps)
        err = abs(fitted - measured)
        worst = max(worst, err)
        nodes.append({
            "rate_mbps": mbps,
            "sinr_db": sinr_db,
            "table_prr": fitted,
            "measured_prr": measured,
            "abs_error": err,
        })
    return {
        "name": "surrogate_prr_match",
        "metric": "fitted table PRR vs re-measured PHY PRR on grid nodes",
        "table_hash": table.spec_hash,
        "nodes": nodes,
        "max_abs_error": max_err,
        "measured_abs_error": worst,
        "passed": worst <= max_err,
    }


def run(out_path: str, min_speedup: float, max_slowdown: float,
        max_prr_err: float) -> int:
    gates = [
        _gate_receive_batch(min_speedup),
        _gate_net_scale(max_slowdown),
        _gate_prr_match(max_prr_err),
    ]
    passed = all(g["passed"] for g in gates)
    record = {
        "bench": "phy_batch",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gates": gates,
        # Mirror of gate 1 in the single-gate shape the other perf-smoke
        # records use, for tooling that reads record["gate"].
        "gate": gates[0],
        "passed": passed,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    g1, g2, g3 = gates
    print(
        f"receive batch {BATCH}: looped={g1['looped_ms']:.1f}ms "
        f"batched={g1['batched_ms']:.1f}ms x{g1['measured_speedup']:.2f} "
        f"(min x{g1['min_speedup']:.2f}) -> "
        f"{'PASS' if g1['passed'] else 'FAIL'}"
    )
    print(
        f"net 256 nodes: table={g2['table_ms']:.0f}ms "
        f"surrogate={g2['surrogate_ms']:.0f}ms "
        f"x{g2['measured_slowdown']:.3f} (max x{g2['max_slowdown']:.2f}) -> "
        f"{'PASS' if g2['passed'] else 'FAIL'}"
    )
    print(
        f"PRR match: worst |table - measured| = "
        f"{g3['measured_abs_error']:.4f} over "
        f"{len(g3['nodes'])} grid nodes (max {g3['max_abs_error']:.2f}) -> "
        f"{'PASS' if g3['passed'] else 'FAIL'}"
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="BENCH_phy_batch.json",
                        help="output record path")
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="gate 1: minimum receive_many/looped speedup at batch 64 "
        "on the numpy backend (default 3.0)",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=1.2,
        help="gate 2: maximum surrogate/table wall-time ratio on the "
        "256-node scenario (default 1.2)",
    )
    parser.add_argument(
        "--max-prr-err", type=float, default=0.02,
        help="gate 3: maximum |table - measured| PRR on spot-checked "
        "grid nodes (default 0.02)",
    )
    args = parser.parse_args(argv)
    return run(args.json, args.min_speedup, args.max_slowdown,
               args.max_prr_err)


if __name__ == "__main__":
    sys.exit(main())
