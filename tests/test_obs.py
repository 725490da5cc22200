"""Tests for the repro.obs subsystem: store counters, tracing, cos.exchange events."""

import json
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import trace as trace_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Disabled tracing around every test."""
    obs.shutdown()
    yield
    obs.shutdown()


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        s1 = span("a")
        s2 = span("b", k=1)
        assert s1 is s2
        assert not s1.enabled
        with s1 as s:
            assert s.set(x=1) is s  # chainable no-op

    def test_nested_spans_record_parent_and_depth(self):
        sink = obs.MemorySink()
        with obs.tracing(sink):
            with span("outer") as outer:
                with span("inner"):
                    time.sleep(0.001)
            assert outer.enabled
        inner_ev, outer_ev = sink.events
        assert inner_ev["name"] == "inner"
        assert inner_ev["parent"] == outer_ev["id"]
        assert inner_ev["depth"] == 1
        assert outer_ev["parent"] is None
        assert outer_ev["dur_s"] >= inner_ev["dur_s"] >= 0.001

    def test_span_labels_and_late_set(self):
        sink = obs.MemorySink()
        with obs.tracing(sink):
            with span("s", a=1) as sp:
                sp.set(b="two")
        assert sink.events[0]["labels"] == {"a": 1, "b": "two"}

    def test_exception_annotates_span(self):
        sink = obs.MemorySink()
        with obs.tracing(sink):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("x")
        assert sink.events[0]["labels"]["error"] == "RuntimeError"

    def test_point_events(self):
        sink = obs.MemorySink()
        with obs.tracing(sink):
            with span("s"):
                obs.event("marker", value=3)
        marker = [e for e in sink.events if e["type"] == "event"][0]
        assert marker["name"] == "marker"
        assert marker["value"] == 3
        assert marker["parent"] is not None

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        session = obs.configure(trace_out=str(path))
        with span("outer"):
            with span("inner", n=np.int64(5)):
                pass
        session.close()
        events = list(obs.read_jsonl(path))
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert events[0]["labels"]["n"] == 5  # numpy scalar became JSON int

    def test_jsonl_text_equals_converted_event(self):
        """The sink encodes numpy values in place; its text must equal the
        JSON of the fully converted event, numpy scalars, arrays, nested
        containers and special floats included."""
        import io

        from repro.obs.sink import JsonlSink, _jsonable

        events = [
            {"a": np.float64(0.1), "b": np.float32(1.5), "c": np.int64(-3),
             "d": np.bool_(True), "e": np.array([[1, 2], [3, 4]], dtype=np.uint8),
             "f": (np.float64(2.0) / 3, [np.int32(7), {"g": np.array([0.5])}]),
             "h": float("nan"), "i": np.float64("inf"), "j": None, "k": "x"},
            {"mask": np.zeros((2, 3), dtype=bool), "n": np.array(np.float16(0.1))},
        ]
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        for event in events:
            sink.emit(event)
        want = "".join(
            json.dumps(_jsonable(e), separators=(",", ":")) + "\n" for e in events
        )
        assert buffer.getvalue() == want
        with pytest.raises(TypeError):
            sink.emit({"s": {1, 2}})

    def test_noop_fast_path_is_cheap(self):
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("hot"):
                pass
        per_span = (time.perf_counter() - t0) / n
        # Hard bar is < 1 µs (benchmarks/gates.py obs); allow CI slack here.
        assert per_span < 10e-6


# ---------------------------------------------------------------------------
# cos.exchange point events
# ---------------------------------------------------------------------------


def _run_link(adapter=None, snr_db=15.0, packets=3, position="A"):
    from repro.channel import IndoorChannel
    from repro.cos import CosLink

    channel = IndoorChannel.position(position, snr_db=snr_db, seed=5)
    link = CosLink(channel=channel, adapter=adapter)
    return link.run(n_packets=packets, payload=bytes(300))


def _exchanges(sink):
    return [e for e in sink.events
            if e["type"] == "event" and e["name"] == "cos.exchange"]


class TestClassifyFailure:
    def test_taxonomy(self):
        from repro.cos.link import classify_failure as f

        assert f(False, False, 4, False, None) == "signal_loss"
        assert f(True, False, 4, False, None) == "crc_fail"
        assert f(True, True, 4, False, "too faded") == "feedback_loss"
        assert f(True, True, 4, False, None) == "detection_miss"
        assert f(True, True, 4, True, None) == "ok"
        assert f(True, True, 0, False, None) == "ok"  # nothing sent


class TestExchangeEvents:
    def test_crc_pass_record_is_complete(self):
        from repro.cos.link import MAX_EVENT_POSITIONS

        sink = obs.MemorySink()
        session = obs.configure(trace_out=sink)
        stats = _run_link(packets=2)
        session.close()
        assert stats.prr == 1.0
        assert {e["type"] for e in sink.events} == {"span", "event"}
        flights = _exchanges(sink)
        assert len(flights) == 2
        rec = flights[0]
        assert rec["schema"] == obs.SCHEMA_VERSION
        # Emitted inside the cos.flight span, a direct child of the
        # cos.exchange span.
        by_id = {e["id"]: e for e in sink.events if e["type"] == "span"}
        assert by_id[rec["parent"]]["name"] == "cos.flight"
        assert by_id[by_id[rec["parent"]]["parent"]]["name"] == "cos.exchange"
        assert "seq" not in rec and "failure_cause" not in rec
        assert rec["crc_ok"] is True
        assert rec["signal_ok"] is True
        assert rec["cause"] == "ok"
        assert rec["rate_mbps"] in (6, 9, 12, 18, 24, 36, 48, 54)
        assert rec["snr_gap_db"] > 0  # rate adaptation leaves headroom
        assert rec["n_silences"] > 0
        assert len(rec["silence_positions"]) == min(rec["n_silences"],
                                                    MAX_EVENT_POSITIONS)
        assert rec["detection_threshold"] > 0
        assert rec["energy_max"] >= rec["energy_mean"] >= rec["energy_min"]
        assert len(rec["symbol_min_energy"]) > 0
        assert rec["evd_erasures"] >= rec["n_silences"] - 50  # detector found most
        assert rec["control_sent_bits"] > 0
        assert rec["control_ok"] is True
        assert rec["evm_selected_subcarriers"]  # feedback flowed on success
        assert rec["n_control_subcarriers"] >= 1
        assert rec["target_silences"] >= 0
        # second packet uses the fed-back subcarriers
        assert flights[1]["control_subcarriers"]

    def test_crc_fail_record_classified(self):
        from repro.ratectl import RateAdapter

        sink = obs.MemorySink()
        session = obs.configure(trace_out=sink)
        # Force 64QAM-3/4 at 6 dB: guaranteed CRC failure.
        _run_link(adapter=RateAdapter(thresholds={54: 2.0}), snr_db=6.0,
                  packets=2, position="C")
        session.close()
        flights = _exchanges(sink)
        assert flights, "no cos.exchange events emitted"
        failed = [i for i, f in enumerate(flights) if not f["crc_ok"]]
        assert failed, "expected at least one CRC failure at 54 Mbps / 6 dB"
        rec = flights[failed[0]]
        assert rec["cause"] in ("crc_fail", "signal_loss")
        assert rec["evm_selected_subcarriers"] == []  # no feedback on failure
        # fallback must have engaged by the next record, if any followed
        later = flights[failed[0] + 1:]
        if later:
            assert later[0]["in_fallback"] is True

    def test_tracing_disabled_means_no_records(self):
        assert trace_mod.current_tracer() is None
        stats = _run_link(packets=1)
        assert stats.prr == 1.0  # instrumented path still works untraced


# ---------------------------------------------------------------------------
# Trace summarisation
# ---------------------------------------------------------------------------


class TestSummarize:
    def test_live_trace_summary_and_coverage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        session = obs.configure(trace_out=str(path))
        _run_link(packets=3)
        session.close()
        summary = obs.summarize_trace(path)
        names = {s.name for s in summary.stages}
        assert {"cos.exchange", "cos.tx.build", "channel.transmit",
                "cos.rx.receive", "phy.rx.decode", "phy.viterbi",
                "cos.energy.detect"} <= names
        assert summary.events == {"cos.exchange": 3}
        assert summary.causes == {"cos.exchange": {"ok": 3}}
        # Acceptance bar: spans cover >= 90 % of exchange wall-clock.
        assert summary.exchange_coverage >= 0.90
        exch = summary.stage("cos.exchange")
        assert exch.count == 3
        assert exch.p95_s >= exch.p50_s > 0

    def test_format_summary_tables(self):
        events = [
            {"type": "span", "name": "cos.exchange", "id": 1, "parent": None,
             "dur_s": 0.010, "depth": 0},
            {"type": "span", "name": "cos.rx.receive", "id": 2, "parent": 1,
             "dur_s": 0.009, "depth": 1},
            {"type": "event", "name": "cos.exchange", "cause": "crc_fail"},
            {"type": "event", "name": "cos.exchange", "cause": "ok"},
            {"type": "event", "name": "net.drop", "cause": "retry_exhausted"},
        ]
        summary = obs.summarize_events(events)
        text = obs.format_summary(summary)
        assert "Per-stage latency" in text
        assert "cos.exchange" in text
        assert "p95 ms" in text
        assert "Outcomes" in text
        assert "crc_fail" in text and "retry_exhausted" in text
        assert summary.causes == {
            "cos.exchange": {"crc_fail": 1, "ok": 1},
            "net.drop": {"retry_exhausted": 1},
        }
        assert "span coverage: 90.0 %" in text

    def test_empty_trace(self):
        summary = obs.summarize_events([])
        assert summary.exchange_coverage == 0.0
        assert obs.format_summary(summary)  # renders without crashing


# ---------------------------------------------------------------------------
# configure/shutdown lifecycle
# ---------------------------------------------------------------------------


class TestConfigure:
    def test_context_manager_disables_on_exit(self):
        with obs.configure(trace_out=obs.MemorySink()) as session:
            assert trace_mod.current_tracer() is session.tracer
        assert trace_mod.current_tracer() is None

    def test_close_is_idempotent(self):
        session = obs.configure()
        session.close()
        session.close()

    def test_trace_only(self):
        """One switch: the tracer carries spans and point events alike."""
        with obs.configure() as session:
            assert trace_mod.current_tracer() is session.tracer


class TestRecordTypes:
    """A trace holds spans and point events; anything else fails loudly."""

    def test_foreign_record_type_raises(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"type": "span", "schema": 2, "name": "cos.exchange"}\n'
            '{"type": "flight", "schema": 2, "failure_cause": "ok"}\n'
        )
        with pytest.raises(ValueError, match="line 2.*type 'flight'"):
            list(obs.read_jsonl(path))

    def test_obs_commands_exit_2_on_foreign_type(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.jsonl"
        path.write_text('{"type": "flight", "schema": 2, "seq": 0}\n')
        for command in ("summarize", "timeline"):
            assert main(["obs", command, str(path)]) == 2
            assert "line 1: record has type 'flight'" in capsys.readouterr().err
