"""Tests for the net-lens: airtime ledger, event records, dispatch spans, CLI.

The load-bearing guarantees:

* **Conservation** — per node, the four ledger states (tx / busy /
  backoff / idle) telescope to exactly the simulation duration, and the
  transmit time splits exactly into data / control / ack.
* **Determinism** — the event records carry no wall time, so they are
  byte-identical between serial and process-pool sweeps, in results and
  in ``--trace-out`` files alike.
* **Schema** — every record is a versioned ``type="event"`` obs record
  named from the pinned ``net.*`` vocabulary; failure causes come from
  the net taxonomy.
* **Timing is spans** — a traced run wraps each dispatched event in one
  ``net.<callback>`` span.
* The paper's headline, as an observable: the CoS run's control airtime
  fraction sits strictly below the explicit run's.
"""

import json

import pytest

import repro.net.lens as lens_mod
import repro.obs as obs
from repro.cli import main
from repro.net import NetLens, builtin_scenario, run_scenario, run_scenario_sweep
from repro.net.lens import (
    NET_EVENT_NAMES,
    NET_FAILURE_CAUSES,
    classify_net_failure,
)
from repro.obs.sink import SCHEMA_VERSION, MemorySink, read_jsonl
from repro.obs.summarize import summarize_events
from repro.obs.timeline import extract_intervals, render_timeline


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.shutdown()
    yield
    obs.shutdown()


def _small_spec(**overrides):
    defaults = dict(n_packets=30, duration_us=30_000.0)
    defaults.update(overrides)
    return builtin_scenario("hidden-node", **defaults)


# ---------------------------------------------------------------------------
# Airtime ledger
# ---------------------------------------------------------------------------


class TestLedgerConservation:
    @pytest.mark.parametrize("scenario,seed", [
        ("hidden-node", 0), ("hidden-node", 7), ("contention", 3),
    ])
    def test_fractions_sum_to_one(self, scenario, seed):
        spec = builtin_scenario(scenario, n_packets=25, duration_us=40_000.0)
        result = run_scenario(spec, rng=seed, lens=NetLens())
        ledger = result.ledger
        for name, row in ledger["per_node"].items():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9), name
            state_us = (row["tx_us"] + row["busy_us"]
                        + row["backoff_us"] + row["idle_us"])
            assert state_us == pytest.approx(ledger["duration_us"], abs=1e-6)

    def test_tx_time_splits_exactly_by_kind(self):
        result = run_scenario(_small_spec(control="explicit"), rng=1,
                              lens=NetLens())
        for name, row in result.ledger["per_node"].items():
            split = row["tx_data_us"] + row["tx_control_us"] + row["tx_ack_us"]
            assert split == pytest.approx(row["tx_us"], abs=1e-6), name

    @pytest.mark.parametrize("seed", [0, 9])
    def test_multi_bss_roaming_conserves_airtime(self, seed):
        """Conservation holds with beacons, roaming, and mobile nodes."""
        spec = builtin_scenario("campus-roaming", duration_us=150_000.0)
        result = run_scenario(spec, rng=seed, lens=NetLens())
        ledger = result.ledger
        for name, row in ledger["per_node"].items():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9), name
            split = (row["tx_data_us"] + row["tx_control_us"]
                     + row["tx_ack_us"] + row["tx_beacon_us"])
            assert split == pytest.approx(row["tx_us"], abs=1e-6), name
        # The per-BSS rollup partitions exactly what the nodes report.
        for key in ("tx_us", "busy_us", "idle_us"):
            assert sum(v[key] for v in ledger["per_bss"].values()) == \
                pytest.approx(
                    sum(r[key] for r in ledger["per_node"].values()),
                    abs=1e-6)

    def test_channel_busy_matches_event_union(self):
        lens = NetLens()
        result = run_scenario(_small_spec(), rng=2, lens=lens)
        ledger = result.ledger
        intervals, _horizon = extract_intervals(result.events)
        # Sweep the union of on-air intervals, clipped at the horizon the
        # ledger closed on (a transmission may still be in flight there).
        end = ledger["duration_us"]
        edges = sorted(
            [(min(iv.start_us, end), 1) for iv in intervals]
            + [(min(iv.end_us, end), -1) for iv in intervals]
        )
        busy, active, opened = 0.0, 0, 0.0
        for t, delta in edges:
            if active == 0 and delta > 0:
                opened = t
            active += delta
            if active == 0 and delta < 0:
                busy += t - opened
        assert busy == pytest.approx(ledger["channel_busy_us"], abs=1e-6)

    def test_ledger_in_result_dict(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        d = result.to_dict()
        assert set(d["ledger"]["per_node"]) == {"ap", "sta_near", "sta_hidden"}
        assert "profile" not in d  # wall time has no place in a result

    def test_disabled_lens_attaches_nothing(self):
        result = run_scenario(_small_spec(), rng=0)
        assert result.ledger is None and result.events is None
        assert "ledger" not in result.to_dict()


class TestControlAirtime:
    def test_cos_strictly_below_explicit(self):
        kw = dict(n_packets=40, duration_us=60_000.0)
        explicit = run_scenario(
            builtin_scenario("hidden-node", control="explicit", **kw),
            rng=0, lens=NetLens())
        cos = run_scenario(
            builtin_scenario("hidden-node", control="cos", **kw),
            rng=0, lens=NetLens())
        frac_explicit = explicit.ledger["control_airtime_fraction"]
        frac_cos = cos.ledger["control_airtime_fraction"]
        assert frac_explicit > 0.0
        assert frac_cos < frac_explicit
        assert frac_cos == 0.0  # CoS feedback rides silences: zero airtime


# ---------------------------------------------------------------------------
# Event trace: schema + determinism
# ---------------------------------------------------------------------------


class TestTraceSchema:
    def test_golden_record_shape(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert result.events
        assert SCHEMA_VERSION == 2
        for ev in result.events:
            assert ev["type"] == "event"
            assert ev["schema"] == SCHEMA_VERSION
            assert ev["name"] in NET_EVENT_NAMES
            assert isinstance(ev["seq"], int)
            assert ev["t_us"] >= 0.0
            assert "event" not in ev and "wall_ts" not in ev

    def test_seq_is_emission_order(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert [ev["seq"] for ev in result.events] == list(
            range(len(result.events)))

    def test_tx_end_carries_cause_taxonomy(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        causes = [ev["cause"] for ev in result.events
                  if ev["name"] == "net.tx_end" and "cause" in ev]
        assert causes, "no addressed tx_end records"
        assert set(causes) <= set(NET_FAILURE_CAUSES)

    def test_records_are_deterministic(self):
        """No record carries wall time: two runs give identical bytes."""
        first = run_scenario(_small_spec(), rng=0, lens=NetLens())
        again = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert json.dumps(first.events) == json.dumps(again.events)

    def test_max_events_cap(self, monkeypatch):
        full = run_scenario(_small_spec(), rng=0, lens=NetLens()).events
        monkeypatch.setattr(lens_mod, "MAX_EVENTS", 10)
        lens = NetLens()
        run_scenario(_small_spec(), rng=0, lens=lens)
        assert lens.events == full[:10]
        assert lens.n_events_dropped == len(full) - 10

    def test_classify_net_failure(self):
        assert classify_net_failure(True, "ok") == "ok"
        assert classify_net_failure(False, "collision") == "collision"
        assert classify_net_failure(False, "rx_busy") == "rx_busy"
        # Unknown reasons fold into channel_error, never crash.
        assert classify_net_failure(False, "???") == "channel_error"


class TestTraceDeterminism:
    def test_serial_vs_pool_byte_identical(self):
        spec = _small_spec()
        serial = run_scenario_sweep(spec, n_trials=2, seed=5, workers=0,
                                    lens=True)
        pooled = run_scenario_sweep(spec, n_trials=2, seed=5, workers=2,
                                    lens=True)
        for a, b in zip(serial, pooled):
            assert a.events
            assert json.dumps(a.events) == json.dumps(b.events)
            assert a.ledger == b.ledger

    def test_multi_bss_serial_vs_pool_byte_identical(self):
        """The roaming scenario (beacons, hand-offs, traffic generators,
        grid-culled medium) replays byte-for-byte across executors."""
        spec = builtin_scenario("campus-roaming", duration_us=150_000.0)
        serial = run_scenario_sweep(spec, n_trials=2, seed=3, workers=0,
                                    lens=True)
        pooled = run_scenario_sweep(spec, n_trials=2, seed=3, workers=2,
                                    lens=True)
        for a, b in zip(serial, pooled):
            assert json.dumps(a.events) == json.dumps(b.events)
            assert a.ledger == b.ledger
            assert a.to_dict() == b.to_dict()
            assert a.n_roams == b.n_roams and a.n_roams > 0


# ---------------------------------------------------------------------------
# Trace routing: dispatch spans, and records emitted by the caller
# ---------------------------------------------------------------------------


def _net_records(events):
    return [ev for ev in events
            if ev.get("type") == "event" and ev["name"].startswith("net.")]


class TestDispatchSpans:
    def test_one_span_per_dispatched_event(self):
        sink = MemorySink()
        with obs.tracing(sink):
            result = run_scenario(_small_spec(), rng=0)
        spans = [ev for ev in sink.events if ev["type"] == "span"]
        (scenario,) = [sp for sp in spans if sp["name"] == "net.scenario"]
        dispatch = [sp for sp in spans if sp["parent"] == scenario["id"]]
        assert len(dispatch) == result.n_events > 0
        assert all(sp["name"].startswith("net.") for sp in dispatch)
        names = {sp["name"] for sp in dispatch}
        assert "net.Medium._end" in names
        # Per-callback cost reaches the stage table.
        summary = summarize_events(sink.events)
        assert summary.stage("net.Medium._end").count > 0

    def test_traced_run_equals_untraced(self):
        """Dispatch spans time the run without changing it."""
        plain = run_scenario(_small_spec(), rng=0, lens=NetLens())
        with obs.tracing(MemorySink()):
            traced = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert traced.to_dict() == plain.to_dict()
        assert traced.events == plain.events


class TestTraceRouting:
    def test_run_scenario_emits_its_records(self):
        sink = MemorySink()
        with obs.tracing(sink):
            result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert _net_records(sink.events) == result.events

    def test_sweep_emits_every_trial_in_order(self):
        sink = MemorySink()
        with obs.tracing(sink):
            results = run_scenario_sweep(_small_spec(), n_trials=2, seed=5,
                                         workers=0, lens=True)
        expected = [dict(ev, trial=i)
                    for i, r in enumerate(results) for ev in r.events]
        assert _net_records(sink.events) == expected
        # The results themselves stay unstamped.
        assert all("trial" not in ev for r in results for ev in r.events)


# ---------------------------------------------------------------------------
# JSONL robustness (satellite: truncated final line)
# ---------------------------------------------------------------------------


class TestReadJsonlTruncation:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"trunc')
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_truncated_final_line_strict_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n{"trunc')
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path, strict=True))

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path))

    def test_other_schema_version_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n{"type": "event", "schema": 2}\n'
                        '{"type": "net", "schema": 1, "event": "tx_start"}\n')
        with pytest.raises(ValueError, match="line 3.*schema 1"):
            list(read_jsonl(path))


# ---------------------------------------------------------------------------
# Summarize + timeline over net traces
# ---------------------------------------------------------------------------


class TestNetSummaries:
    def test_summarize_counts_net_events(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        summary = summarize_events(result.events)
        assert summary.n_events == len(result.events)
        assert sum(summary.events.values()) == len(result.events)
        assert summary.events["net.tx_start"] > 0
        assert set(summary.causes) == {"net.tx_end", "net.drop"} & set(
            summary.events)
        for causes in summary.causes.values():
            assert set(causes) <= set(NET_FAILURE_CAUSES)
        assert summary.n_spans == 0

    def test_render_timeline(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        text = render_timeline(result.events, width=40)
        assert "channel" in text
        assert "sta_hidden" in text and "sta_near" in text
        assert "#" in text and "D" in text
        assert "airtime %" in text

    def test_render_timeline_empty(self):
        assert "no net.tx_start events" in render_timeline([])

    def test_timeline_renders_lowest_trial(self):
        results = run_scenario_sweep(_small_spec(), n_trials=2, seed=5,
                                     lens=True)
        stamped = [dict(ev, trial=i) for i in (1, 0)
                   for ev in results[i].events]
        assert extract_intervals(stamped) == extract_intervals(
            results[0].events)
        assert extract_intervals(stamped) != extract_intervals(
            results[1].events)


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestLensCli:
    def test_ledger_out_stdout(self, capsys):
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--ledger-out", "-"]) == 0
        out = capsys.readouterr().out
        ledger = json.loads(out[out.index("{"):])
        assert ledger["scenario"] == "hidden-node"
        for row in ledger["per_node"].values():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9)

    def test_timeline_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "net.jsonl"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["--quiet", "obs", "timeline", str(trace),
                     "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "Airtime timeline" in out
        assert "(channel)" in out

    def test_summarize_json_includes_net_fields(self, tmp_path, capsys):
        trace = tmp_path / "net.jsonl"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["--quiet", "obs", "summarize", str(trace),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"]["net.tx_start"] > 0
        assert "ok" in summary["causes"]["net.tx_end"]
        stages = {s["name"] for s in summary["stages"]}
        assert "net.scenario" in stages and "net.Medium._end" in stages

    def test_summary_json_carries_ledger_when_lens_on(self, tmp_path,
                                                      capsys):
        ledger_path = tmp_path / "ledger.json"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--ledger-out", str(ledger_path),
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert "ledger" in summary and "profile" not in summary
        assert summary["ledger"]["channel_busy_fraction"] > 0

    def test_obs_commands_reject_other_schema(self, tmp_path, capsys):
        trace = tmp_path / "old.jsonl"
        trace.write_text('{"type": "net", "schema": 1, "event": "tx_start"}\n')
        for command in ("summarize", "timeline"):
            assert main(["obs", command, str(trace)]) == 2
            assert "line 1: record has schema 1" in capsys.readouterr().err

    def test_trace_out_serial_equals_pool(self, tmp_path):
        """Every trial's net records reach the trace, pool or not."""
        records = {}
        for workers in ("0", "2"):
            trace = tmp_path / f"net-{workers}.jsonl"
            assert main(["--quiet", "net", "run", "hidden-node",
                         "--trials", "2", "--workers", workers,
                         "--trace-out", str(trace)]) == 0
            records[workers] = _net_records(read_jsonl(trace))
        assert records["0"] == records["2"]
        assert {ev["trial"] for ev in records["0"]} == {0, 1}

    def test_json_serial_equals_pool_with_ledger(self, tmp_path):
        """A lensed summary holds no wall time: serial and pooled runs
        export the same bytes."""
        texts = {}
        for workers in ("0", "2"):
            out = tmp_path / f"summary-{workers}.json"
            assert main(["--quiet", "net", "run", "hidden-node",
                         "--trials", "2", "--workers", workers,
                         "--ledger-out", str(tmp_path / "ledger.json"),
                         "--json", str(out)]) == 0
            texts[workers] = out.read_bytes()
        assert texts["0"] == texts["2"]
        assert b'"ledger"' in texts["0"]


# ---------------------------------------------------------------------------
# Unified summary shape (satellite: CLI JSON derives from to_dict)
# ---------------------------------------------------------------------------


class TestSummaryUnification:
    def test_summary_keys_match_to_dict(self):
        from repro.net import summarize_results

        spec = _small_spec()
        results = run_scenario_sweep(spec, n_trials=2, seed=1)
        summary = summarize_results(results)
        expected = set(results[0].to_dict()) | {"n_trials"}
        assert set(summary) == expected
        per_node = results[0].to_dict()["per_node"]
        for name, row in per_node.items():
            assert set(summary["per_node"][name]) >= set(row)

    def test_all_none_column_stays_none(self):
        from repro.net.simulator import _combine_values

        assert _combine_values([None, None]) is None
        assert _combine_values([{"a": None}, {"a": None}]) == {"a": None}
        assert _combine_values([{"a": 1.0}, {}]) == {"a": 0.5}
        assert _combine_values([{"a": "x"}, {"a": "x"}]) == {"a": "x"}
        assert _combine_values([2, 4]) == 3.0
