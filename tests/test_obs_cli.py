"""CLI-level tests: --trace-out, obs summarize, logging flags."""

import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.shutdown()
    yield
    obs.shutdown()


class TestParser:
    def test_link_obs_flags(self):
        args = build_parser().parse_args(["link", "--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"
        # --trace-out is the link's one export.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "--metrics-out", "m.prom"])

    def test_obs_summarize_args(self):
        args = build_parser().parse_args(["obs", "summarize", "trace.jsonl"])
        assert args.obs_command == "summarize"
        assert args.trace == "trace.jsonl"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_global_logging_flags(self):
        args = build_parser().parse_args(["--log-level", "debug", "info"])
        assert args.log_level == "debug"
        args = build_parser().parse_args(["--quiet", "info"])
        assert args.quiet is True

    def test_invalid_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "info"])


class TestLinkTracing:
    def test_link_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "--quiet", "link", "--packets", "4", "--payload", "200",
            "--snr", "15", "--seed", "5",
            "--trace-out", str(trace),
        ])
        assert code == 0
        assert "data PRR" in capsys.readouterr().out

        events = list(obs.read_jsonl(trace))
        kinds = {e["type"] for e in events}
        assert kinds == {"span", "event"}
        exchanges = [e for e in events if e["name"] == "cos.exchange"]
        assert [e["type"] for e in exchanges].count("span") == 4
        assert [e["type"] for e in exchanges].count("event") == 4

    def test_dash_means_stdout(self, tmp_path, monkeypatch, capsys):
        """``-`` is stdout for --trace-out: no file named ``-`` appears
        and the records reach stdout."""
        monkeypatch.chdir(tmp_path)
        assert main(["--quiet", "link", "--packets", "2", "--payload", "200",
                     "--trace-out", "-"]) == 0
        assert list(tmp_path.iterdir()) == []
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        events = [r for r in records if r["type"] == "event"]
        assert [r["name"] for r in events] == ["cos.exchange"] * 2
        assert "data PRR" in out
        assert not sys.stdout.closed

    def test_closed_stdout_pipe_exits_quietly(self):
        """A reader that leaves early (``--trace-out - | grep -q ...``)
        ends the run with exit 1 and no traceback."""
        import os
        import subprocess

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # ~4 kB per traced exchange: enough to overflow the pipe buffer,
        # so the writer is still running when the reader closes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--quiet", "link",
             "--packets", "40", "--payload", "200", "--trace-out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in stderr

    def test_tracing_disabled_after_run(self, tmp_path):
        from repro.obs import trace as trace_mod

        main(["--quiet", "link", "--packets", "1", "--payload", "200",
              "--trace-out", str(tmp_path / "t.jsonl")])
        assert trace_mod.current_tracer() is None


class TestObsSummarize:
    N_PACKETS = 32

    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # Coverage below is a wall-clock ratio; a GC pass triggered by
        # garbage from earlier tests would land in the untraced gaps and
        # skew it, so start from a clean heap, and run enough exchanges
        # that one host hiccup cannot decide the ratio.
        gc.collect()
        assert main(["--quiet", "link", "--packets", str(self.N_PACKETS),
                     "--payload", "200", "--trace-out", str(path)]) == 0
        return path

    def test_summarize_prints_tables(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["--quiet", "obs", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage latency" in out
        assert "cos.exchange" in out
        assert "p50 ms" in out and "p95 ms" in out
        assert "Outcomes" in out
        assert "span coverage" in out
        # summarize must not re-run the simulation: it only reads the file
        assert "data PRR" not in out

    def test_summarize_coverage_acceptance(self, trace_path):
        summary = obs.summarize_trace(trace_path)
        # Structural check: child spans must cover nearly all of
        # cos.exchange (a missing stage would drop this far lower, e.g.
        # phy.viterbi alone is ~75 %).  Leave headroom for scheduler and
        # allocator jitter when the whole suite runs on a loaded core.
        assert summary.exchange_coverage >= 0.85

    def test_summarize_json(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["--quiet", "obs", "summarize", str(trace_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == {"cos.exchange": self.N_PACKETS}
        assert sum(payload["causes"]["cos.exchange"].values()) == self.N_PACKETS
        assert payload["exchange_coverage"] >= 0.85
        assert any(s["name"] == "phy.viterbi" for s in payload["stages"])

    def test_summarize_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["--quiet", "obs", "summarize", str(tmp_path / "nope.jsonl")])


class TestLoggingFlags:
    def test_quiet_suppresses_diagnostics(self, tmp_path, capsys):
        main(["--quiet", "link", "--packets", "1", "--payload", "200",
              "--trace-out", str(tmp_path / "t.jsonl")])
        captured = capsys.readouterr()
        assert "trace written" not in captured.err

    def test_info_level_reports_trace_path(self, tmp_path, capsys):
        main(["--log-level", "info", "link", "--packets", "1",
              "--payload", "200", "--trace-out", str(tmp_path / "t.jsonl")])
        assert "trace written" in capsys.readouterr().err

    def test_setup_logging_sets_level(self):
        from repro.cli import setup_logging

        setup_logging("debug")
        assert logging.getLogger("repro").level == logging.DEBUG
        setup_logging("info", quiet=True)
        assert logging.getLogger("repro").level == logging.ERROR

    def test_logging_follows_a_swapped_stderr(self):
        # In a fresh interpreter: configure logging under a swapped
        # stderr, close that stream and put the real one back, then log.
        code = (
            "import io, logging, sys\n"
            "from repro.cli import setup_logging\n"
            "real, sys.stderr = sys.stderr, io.StringIO()\n"
            "setup_logging('info')\n"
            "sys.stderr.close()\n"
            "sys.stderr = real\n"
            "logging.getLogger('repro.test').warning('still heard')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "--- Logging error ---" not in proc.stderr
        assert "WARNING repro.test: still heard" in proc.stderr
