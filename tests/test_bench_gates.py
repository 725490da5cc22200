"""The perf-gate runner's record and exit-code logic (``benchmarks/gates.py``).

Stub groups stand in for the measurements, so nothing here is timed.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import gates  # noqa: E402
from gates import GateError, Reading  # noqa: E402


def _run(monkeypatch, tmp_path, groups, argv):
    monkeypatch.setattr(gates, "GROUPS", groups)
    out = tmp_path / "BENCH_gates.json"
    rc = gates.main([*argv, "--out", str(out)])
    return rc, json.loads(out.read_text())


def test_passing_gates_give_exit_zero_and_one_record(monkeypatch, tmp_path):
    groups = {
        "kernels": lambda: iter([Reading("viterbi_4096", 60.0, {"x": 1})]),
        "obs": lambda: iter([Reading("noop_span", 0.25, {})]),
    }
    rc, record = _run(monkeypatch, tmp_path, groups, [])
    assert rc == 0
    assert record["schema"] == 1
    assert [(g["group"], g["name"]) for g in record["gates"]] == [
        ("kernels", "viterbi_4096"), ("obs", "noop_span")]
    kernel, span = record["gates"]
    assert kernel == {"group": "kernels", "name": "viterbi_4096",
                      "metric": "cext/numpy speedup", "measured": 60.0,
                      "bound": 1.5, "better": "higher", "passed": True,
                      "detail": {"x": 1}}
    assert span["better"] == "lower" and span["passed"]


def test_failing_gate_gives_exit_one(monkeypatch, tmp_path, capsys):
    groups = {"kernels": lambda: iter([Reading("viterbi_4096", 1.2, {})])}
    rc, record = _run(monkeypatch, tmp_path, groups, ["kernels"])
    assert rc == 1
    assert record["gates"][0]["passed"] is False
    assert "FAIL kernels/viterbi_4096" in capsys.readouterr().err


def test_failed_check_fails_a_gate_within_its_bound(monkeypatch, tmp_path, capsys):
    groups = {"store": lambda: iter([
        Reading("warm_cache", 400.0, {}, {"bit_identical": False})])}
    rc, record = _run(monkeypatch, tmp_path, groups, ["store"])
    assert rc == 1
    gate = record["gates"][0]
    assert gate["passed"] is False
    assert gate["detail"]["checks"] == {"bit_identical": False}
    assert "failed checks: bit_identical" in capsys.readouterr().err


def test_gate_that_cannot_run_names_the_cause(monkeypatch, tmp_path, capsys):
    def no_compiler():
        yield from ()
        raise GateError("no C compiler found")

    groups = {"kernels": no_compiler,
              "obs": lambda: iter([Reading("noop_span", 0.25, {})])}
    rc, record = _run(monkeypatch, tmp_path, groups, ["kernels", "obs"])
    assert rc != 0
    broken, span = record["gates"]
    assert broken["group"] == "kernels" and broken["passed"] is False
    assert broken["detail"] == {"error": "no C compiler found"}
    assert span["passed"]  # later groups still run
    assert "FAIL kernels: cannot run: no C compiler found" in capsys.readouterr().err


def test_stamp_carries_commit(monkeypatch, tmp_path):
    groups = {"obs": lambda: iter([Reading("noop_span", 0.25, {})])}
    _, record = _run(monkeypatch, tmp_path, groups, ["obs"])
    stamp = record["stamp"]
    assert "commit" in stamp and "dirty" in stamp
    if (BENCH_DIR.parent / ".git").exists():
        assert re.fullmatch(r"[0-9a-f]{40}", stamp["commit"])
    assert stamp["machine"]["arch"] and stamp["python"]


def test_unknown_group_is_rejected(monkeypatch, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        gates.main(["kernels", "bogus", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "unknown group(s) bogus" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_bounds_table_is_unchanged():
    """Every bound the gates enforce, value and direction.

    Loosening a bound shows up as a diff here.
    """
    assert {key: (b.op, b.value) for key, b in gates.BOUNDS.items()} == {
        ("kernels", "viterbi_4096"): (">=", 1.5),
        ("phy-batch", "receive_batch64"): (">=", 3.0),
        ("phy-batch", "surrogate_prr_match"): ("<=", 0.02),
        ("net-scaling", "culled_n16"): (">=", 2000.0),
        ("net-scaling", "culled_n64"): (">=", 2000.0),
        ("net-scaling", "culled_n256"): (">=", 2000.0),
        ("net-scaling", "culled_n1024"): (">=", 2000.0),
        ("net-scaling", "culled_contention"): (">", 2000.0),
        ("net-scaling", "culled_vs_dense_n256"): (">=", 2.0),
        ("store", "warm_cache"): (">=", 10.0),
        ("store", "kill_resume"): ("<=", 0),
        ("pool", "pool_speedup"): (">=", 1.8),
        ("pool", "pool_speedup_few_cores"): (">=", 0.4),
        ("obs", "noop_span"): ("<", 1.0),
        ("obs", "enabled_span"): ("<", 50.0),
        ("obs", "lens_disabled_share"): ("<", 0.03),
    }
    # The lens-share gate's sanity check on its own hook count.
    assert gates.MIN_LENS_CHECKS == 1000


def test_committed_record_names_only_current_gates():
    """``BENCH_gates.json`` holds no reading of a gate that was deleted."""
    record = json.loads((BENCH_DIR.parent / "BENCH_gates.json").read_text())
    stale = [(g["group"], g["name"]) for g in record["gates"]
             if (g["group"], g["name"]) not in gates.BOUNDS]
    assert stale == []
