"""Exact golden of the multi-trial ``repro.net`` summaries.

``tests/data/net_summary_golden.json`` records, in emitted key order:

* ``compare_controllers`` over the default controller matrix at quick scale
  (``hidden-node`` with 200 packets and ``cross-cell`` with 80 + 24
  packets, both 60 ms), ``n_trials=3``, seed 0;
* ``summarize_results`` of three 200 ms ``campus-roaming`` trials (seed
  0), whose ``n_roams`` and ``associations`` keys only roaming results
  carry.

Every scenario runs the measured models of the committed surrogate
table.

Unlike ``test_net_golden.py`` these compare to the last bit and in key
order (JSON writes floats by ``repr``, which round-trips): the
summaries are means over trials, and the pin is on how they are
combined.  The file is stamped with the commit it was recorded at;
``python tests/test_net_summary_golden.py`` prints a fresh record.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.net import campus_roaming, cross_cell, hidden_node
from repro.net.simulator import (
    _combine_values,
    run_scenario_sweep,
    summarize_results,
)
from repro.ratectl import compare_controllers

GOLDEN_PATH = Path(__file__).parent / "data" / "net_summary_golden.json"
N_TRIALS = 3
SEED = 0


def _reports():
    specs = {
        "hidden-node": hidden_node(n_packets=200, duration_us=60_000.0),
        "cross-cell": cross_cell(n_uplink_packets=80, n_cross_packets=24,
                                 duration_us=60_000.0),
    }
    out = {f"compare/{name}": compare_controllers(spec, n_trials=N_TRIALS,
                                                  seed=SEED, workers=0)
           for name, spec in specs.items()}
    roaming = run_scenario_sweep(campus_roaming(duration_us=200_000.0),
                                 n_trials=N_TRIALS, seed=SEED, workers=0)
    out["summary/campus-roaming"] = summarize_results(roaming)
    return out


def _text(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def reports():
    return _reports()


def test_golden_file_covers_every_case(golden, reports):
    assert golden["commit"]
    assert set(golden["cases"]) == set(reports)


def test_roaming_summary_carries_associations(golden):
    summary = golden["cases"]["summary/campus-roaming"]
    assert summary["n_trials"] == N_TRIALS
    assert summary["n_roams"] > 0
    assert summary["associations"]


@pytest.mark.parametrize("case", ["compare/hidden-node", "compare/cross-cell",
                                  "summary/campus-roaming"])
def test_summary_matches_golden_exactly(golden, reports, case):
    assert _text(reports[case]) == _text(golden["cases"][case])


class TestCombineValues:
    def test_all_none_is_none(self):
        assert _combine_values([None, None]) is None
        assert _combine_values([{"a": None}, {"a": None}]) == {"a": None}

    def test_none_entries_are_dropped_from_the_mean(self):
        assert _combine_values([1.0, None, 3.0]) == 2.0

    def test_key_absent_in_some_trials_counts_as_zero(self):
        got = _combine_values([{"loss": {"collision": 3}},
                               {"loss": {}},
                               {"loss": {"collision": 3, "fade": 6}}])
        assert got == {"loss": {"collision": 2.0, "fade": 2.0}}

    def test_absent_dict_counts_as_empty(self):
        got = _combine_values([{"m": {"x": 2}}, {}])
        assert got == {"m": {"x": 1.0}}

    def test_identical_values_pass_through_with_their_type(self):
        got = _combine_values([{"n": 3, "ok": True, "s": "cos"}] * 3)
        assert got == {"n": 3, "ok": True, "s": "cos"}
        assert type(got["n"]) is int and type(got["ok"]) is bool

    def test_differing_bools_take_the_first_trial(self):
        assert _combine_values([True, False, False]) is True

    def test_differing_non_numerics_take_the_first_trial(self):
        assert _combine_values(["ap1", "ap2"]) == "ap1"
        assert _combine_values([{"sta": "ap1"}, {"sta": "ap2"}]) == {"sta": "ap1"}
        assert _combine_values([1, "x"]) == 1

    def test_differing_ints_become_a_float_mean(self):
        got = _combine_values([1, 2])
        assert got == 1.5 and type(got) is float

    def test_key_order_is_first_appearance(self):
        got = _combine_values([{"b": 1, "a": {"y": 1, "x": 2}},
                               {"c": 5.0, "a": {"z": 0, "x": 3}, "b": 2}])
        assert list(got) == ["b", "a", "c"]
        assert list(got["a"]) == ["y", "x", "z"]

    def test_means_match_per_leaf_numpy_mean_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(2, 151))
            leaves = {f"k{i}": rng.normal(scale=10.0 ** rng.integers(-6, 7),
                                          size=n).tolist()
                      for i in range(4)}
            trials = [{k: v[t] for k, v in leaves.items()} for t in range(n)]
            got = _combine_values(trials)
            for k, v in leaves.items():
                assert got[k] == float(np.mean(v)), (n, k)


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    print(json.dumps({
        "commit": commit,
        "cases": _reports(),
    }, indent=2))
