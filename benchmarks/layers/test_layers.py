"""Smoke test of the layered benchmark; run with ``pytest benchmarks/layers``.

Every workload runs at ``--scale smoke`` through ``run.py``, untraced
twice and traced once.  The tests check what the benchmark promises:
the emitted metric names are exactly ``BENCHMARK.json``'s, outputs pass
their checks, output digests repeat across runs, and the traced split
adds up to the traced wall.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

layer_trace = workloads.layer_trace


def _run(out: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--scale", "smoke", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Two untraced smoke runs and one traced run of all five workloads."""
    tmp = tmp_path_factory.mktemp("layers")
    runs = {}
    for key, extra in (("e2e", ()), ("e2e_again", ()), ("trace", ("--trace", "1"))):
        out = tmp / f"{key}.json"
        runs[key] = (_result(_run(out, *extra)), json.loads(out.read_text()), out)
    return runs


def _names(spec_key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("key,spec_key", [("e2e", "end_to_end"), ("trace", "per_layer")])
def test_emitted_names_match_benchmark_json(records, key, spec_key):
    result, _, _ = records[key]
    expected = _names(spec_key)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in WORKLOADS:
        emitted = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items()
                   if k.startswith(workload + ".")}
        assert emitted == expected, workload


def test_end_to_end_values_are_positive(records):
    result, _, _ = records["e2e"]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_digests_repeat_across_runs(records):
    first, second = records["e2e"][1], records["e2e_again"][1]
    for workload in WORKLOADS:
        digest = first["workloads"][workload]["outputs_sha256"]
        assert digest and digest == second["workloads"][workload]["outputs_sha256"], workload


def test_traced_split_adds_up_to_traced_wall(records):
    record = records["trace"][1]
    for workload in WORKLOADS:
        fold = record["workloads"][workload]["processes"][0]["trace"]
        layers = fold["layers"].values()
        raw = sum(v["self_s"] for v in layers) + fold["unattributed_s"]
        assert raw == pytest.approx(fold["wall_s"], rel=1e-9), workload
        calibrated = (sum(v["self_s_calibrated"] for v in layers)
                      + fold["unattributed_s_calibrated"])
        assert calibrated == pytest.approx(fold["calibrated_wall_s"], rel=1e-9), workload


def test_compare_reads_records(records):
    a, b = records["e2e"][2], records["e2e_again"][2]
    proc = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "compare", str(a), "--", str(b)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert "outputs_sha256 equal on 1/1 common seeds" in proc.stdout
    rows = [line for line in proc.stdout.splitlines() if line.startswith(tuple(WORKLOADS))]
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)


def test_compare_refuses_a_file_that_is_not_a_record(records, tmp_path):
    other = tmp_path / "values.json"
    other.write_text('{"cos-closed-loop": {}}')
    proc = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "compare", str(records["e2e"][2]),
         "--", str(other)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "not a benchmark record" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layers",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out.json", "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_folds_nested_calls():
    def leaf(x, *rest, k=1, **extra):
        _busy(0.002)
        return x, rest, k, extra

    tracer = layer_trace.Tracer()
    leaf = tracer.wrap(leaf, "leaf", "L")

    def mid(a, b=2):
        _busy(0.001)
        leaf(a, 5, k=b, z=1)
        leaf(a)
        return a + b

    mid = tracer.wrap(mid, "mid", "M")
    assert leaf(1, 2, k=3, q=4) == (1, (2,), 3, {"q": 4})
    tracer.reset()
    t0 = time.perf_counter()
    assert mid(1) + mid(2, b=3) == 8
    fold = tracer.fold(time.perf_counter() - t0)

    assert tracer.parents() == [-1, 0, 0, -1, 3, 3]
    assert fold["layers"]["L"]["calls"] == 4 and fold["layers"]["M"]["calls"] == 2
    assert fold["layers"]["L"]["self_s"] >= 4 * 0.002
    assert 2 * 0.001 <= fold["layers"]["M"]["self_s"] < 4 * 0.002
    total = sum(v["self_s"] for v in fold["layers"].values()) + fold["unattributed_s"]
    assert total == pytest.approx(fold["wall_s"], rel=1e-9)
