"""Kernel-layer perf-regression harness (viterbi / demap / packet decode).

Two entry points:

* ``pytest benchmarks/bench_viterbi_kernels.py`` — pytest-benchmark
  comparisons of the blocked NumPy kernel and the C kernel, plus the
  batched ``decode_many`` path.

* ``python benchmarks/bench_viterbi_kernels.py --out BENCH_phy_kernels.json``
  — the CI perf-smoke: times each workload under the always-available
  ``numpy`` backend ("before") and the best available backend ("after"),
  writes the JSON record, and exits non-zero if the best-vs-numpy speedup
  on the gate workload falls below ``--min-speedup`` — or at once if no
  C compiler was found, since then the fast path cannot engage at all.

The gate is deliberately **relative** (best backend vs numpy in the
same process, same machine, same load) so CI runners of any speed give a
stable signal; absolute wall-clock is recorded for humans but never
gated.  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict

import numpy as np

from repro.channel import IndoorChannel
from repro.kernels import available_backends, decode_many, use_backend
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.convcode import conv_encode
from repro.phy.viterbi import ViterbiDecoder, hard_bits_to_llrs

# ---------------------------------------------------------------------------
# Shared workloads
# ---------------------------------------------------------------------------

_RNG = np.random.default_rng(0)
_INFO = _RNG.integers(0, 2, 4096, dtype=np.uint8)
_LLRS = hard_bits_to_llrs(conv_encode(_INFO)).astype(np.float64)
_BATCH = [_LLRS[: 2 * 512].copy() for _ in range(16)]
PSDU = build_mpdu(bytes(range(256)) * 2)


def _packet_fixture():
    frame = Transmitter().transmit(PSDU, RATE_TABLE[24])
    channel = IndoorChannel.position("B", snr_db=20.0, seed=1)
    return Receiver(), channel.transmit(frame.waveform)


def _check(decoded: np.ndarray) -> None:
    assert np.array_equal(decoded[:-8], _INFO[:-8])


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def test_viterbi_numpy_blocked(benchmark):
    with use_backend("numpy") as be:
        be.prewarm()
        _check(benchmark(lambda: be.viterbi_decode(_LLRS, False)))


def test_viterbi_cext(benchmark):
    from repro.kernels import cext

    if not cext.compiler_available():
        import pytest

        pytest.skip("no C compiler on PATH")
    with use_backend("cext") as be:
        be.prewarm()
        _check(benchmark(lambda: be.viterbi_decode(_LLRS, False)))


def test_decode_many_batch(benchmark):
    decoder = ViterbiDecoder(terminated=True)
    rows = benchmark(lambda: decoder.decode_many(_BATCH))
    assert len(rows) == len(_BATCH)


def test_packet_receive_best_backend(benchmark):
    rx, waveform = _packet_fixture()
    result = benchmark(lambda: rx.receive(waveform))
    assert result.ok


# ---------------------------------------------------------------------------
# Script mode: BENCH_phy_kernels.json + relative-speedup gate
# ---------------------------------------------------------------------------


def _time_ms(fn: Callable[[], object], repeats: int = 5, iters: int = 10) -> float:
    """Best-of-``repeats`` median: robust to CI-runner noise."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best * 1e3


def _workloads() -> Dict[str, Callable[[], object]]:
    rx, waveform = _packet_fixture()
    obs = rx.observe(waveform)  # backend-independent front end, done once
    return {
        "viterbi_4096": lambda: ViterbiDecoder(terminated=False).decode(_LLRS),
        "decode_many_16x512": lambda: decode_many(_BATCH),
        "packet_decode_24mbps": lambda: rx.decode(obs),
        "packet_receive_24mbps": lambda: rx.receive(waveform),
    }


def run(out_path: str, min_speedup: float, gate_workload: str) -> int:
    backends = available_backends()
    if "cext" not in backends:
        print(
            "no C compiler found: the cext backend is unavailable, so there "
            "is no fast path to gate against numpy",
            file=sys.stderr,
        )
        return 2
    workloads = _workloads()

    results: Dict[str, Dict[str, float]] = {}
    for label, backend in (("before", "numpy"), ("after", "cext")):
        with use_backend(backend) as be:
            be.prewarm()
            for name, fn in workloads.items():
                fn()  # warm the caches for this backend
                results.setdefault(name, {})[f"{label}_ms"] = _time_ms(fn)

    for entry in results.values():
        entry["speedup"] = entry["before_ms"] / entry["after_ms"]

    gate_speedup = results[gate_workload]["speedup"]
    passed = gate_speedup >= min_speedup
    record = {
        "bench": "phy_kernels",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "backends_available": backends,
        "best_backend": "cext",
        "baseline_backend": "numpy",
        "results": results,
        "gate": {
            "workload": gate_workload,
            "metric": "relative speedup (best backend vs numpy)",
            "min_speedup": min_speedup,
            "measured_speedup": gate_speedup,
            "passed": passed,
        },
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, entry in results.items():
        print(
            f"{name:24s} before={entry['before_ms']:8.2f}ms "
            f"after={entry['after_ms']:8.2f}ms  x{entry['speedup']:.2f}"
        )
    print(
        f"gate [{gate_workload}] x{gate_speedup:.2f} "
        f"(min x{min_speedup:.2f}) -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_phy_kernels.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="gate: minimum best-backend/numpy speedup (relative, "
        "machine-independent; default 1.5)",
    )
    parser.add_argument(
        "--gate-workload",
        default="viterbi_4096",
        choices=[
            "viterbi_4096",
            "decode_many_16x512",
            "packet_decode_24mbps",
            "packet_receive_24mbps",
        ],
    )
    args = parser.parse_args(argv)
    return run(args.out, args.min_speedup, args.gate_workload)


if __name__ == "__main__":
    sys.exit(main())
