"""Tests for the ``repro net`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.net import ScenarioSpec, builtin_scenario


@pytest.fixture()
def small_scenario_path(tmp_path):
    spec = builtin_scenario("hidden-node", n_packets=30, duration_us=30_000.0)
    path = tmp_path / "small.json"
    spec.save(str(path))
    return str(path)


class TestNetList:
    def test_lists_builtins(self, capsys):
        assert main(["net", "list"]) == 0
        out = capsys.readouterr().out
        assert "hidden-node" in out
        assert "contention" in out
        assert "cross-cell" in out

    def test_lists_controllers(self, capsys):
        from repro.ratectl import available_controllers

        assert main(["net", "list"]) == 0
        out = capsys.readouterr().out
        assert "controller" in out
        for name in available_controllers():
            assert name in out


class TestNetRun:
    def test_run_scenario_file_with_json_export(self, small_scenario_path,
                                                capsys):
        assert main(["net", "run", small_scenario_path, "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert "Scenario hidden-node" in out
        summary = json.loads(out[out.index("{"):])
        assert summary["scenario"] == "hidden-node"
        assert summary["control"] == "cos"
        assert summary["per_node"]["sta_near"]["goodput_mbps"] > 0

    def test_control_override(self, small_scenario_path, capsys):
        assert main(["net", "run", small_scenario_path,
                     "--control", "explicit"]) == 0
        assert "[explicit control" in capsys.readouterr().out

    def test_run_builtin_by_name(self, capsys):
        assert main(["net", "run", "contention", "--seed", "3"]) == 0
        assert "contention" in capsys.readouterr().out

    def test_unknown_scenario_errors(self):
        assert main(["net", "run", "no-such-scenario"]) == 2

    @pytest.mark.parametrize("command", [["net", "run"],
                                         ["net", "compare", "--scenario"]])
    def test_run_and_compare_resolve_scenarios_alike(self, command, tmp_path,
                                                     capsys):
        assert main(command + ["no-such-scenario"]) == 2
        assert ("'no-such-scenario' is neither a scenario file nor a "
                "built-in (see 'repro net list')") in capsys.readouterr().err
        # A path that exists but is no file fails with the same clean line.
        assert main(command + [str(tmp_path)]) == 2
        assert f"invalid scenario file {tmp_path}:" in capsys.readouterr().err

    def test_json_and_trace_files(self, small_scenario_path, tmp_path):
        summary_path = tmp_path / "summary.json"
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "net", "run", small_scenario_path,
            "--trials", "2", "--workers", "0",
            "--json", str(summary_path),
            "--trace-out", str(trace_path),
        ]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["n_trials"] == 2
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        frames = [e for e in events
                  if e["type"] == "event" and e["name"].startswith("net.")]
        assert {e["trial"] for e in frames} == {0, 1}

    def test_controller_flag(self, small_scenario_path, capsys):
        assert main(["net", "run", small_scenario_path,
                     "--controller", "minstrel", "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert "minstrel controller" in out
        summary = json.loads(out[out.index("{"):])
        assert summary["controller"] == "minstrel"

    def test_unknown_controller_errors(self, small_scenario_path):
        # The message naming the available set is pinned in
        # tests/test_ratectl.py; here the CLI must refuse cleanly.
        assert main(["net", "run", small_scenario_path,
                     "--controller", "bogus"]) == 2

    def test_null_controller_in_file_errors(self, small_scenario_path,
                                            tmp_path):
        data = json.loads(open(small_scenario_path).read())
        data["controller"] = None
        path = tmp_path / "null_controller.json"
        path.write_text(json.dumps(data))
        assert main(["net", "run", str(path)]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_duration_in_file_errors(self, small_scenario_path,
                                                tmp_path, capsys, literal):
        text = open(small_scenario_path).read().replace(
            '"duration_us": 30000.0', f'"duration_us": {literal}')
        assert literal in text
        path = tmp_path / "non_finite.json"
        path.write_text(text)
        assert main(["net", "run", str(path)]) == 2
        assert "duration_us must be finite and positive" in capsys.readouterr().err

    def test_removed_phy_fidelity_in_file_errors(self, small_scenario_path,
                                                 tmp_path, capsys):
        data = json.loads(open(small_scenario_path).read())
        data["cos_fidelity"] = "phy"
        path = tmp_path / "phy_fidelity.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match=r"unknown scenario fields: \['cos_fidelity'\]"):
            ScenarioSpec.load(str(path))
        assert main(["net", "run", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["net", "run", "hidden-node", "--error-model", "surrogate"],
        ["net", "run", "hidden-node", "--fidelity", "surrogate"],
        ["net", "compare", "--error-model", "surrogate"],
    ])
    def test_removed_model_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parallel_summary_matches_serial(self, small_scenario_path,
                                             tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        for workers, path in (("0", serial), ("2", parallel)):
            assert main([
                "net", "run", small_scenario_path,
                "--trials", "2", "--seed", "17", "--workers", workers,
                "--json", str(path),
            ]) == 0
        assert json.loads(serial.read_text()) == json.loads(parallel.read_text())


class TestScenarioFileInRepo:
    def test_shipped_example_parses(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "hidden_node.json"
        spec = ScenarioSpec.load(str(path))
        assert spec.name == "hidden-node"
        assert {n.name for n in spec.nodes} == {"ap", "sta_near", "sta_hidden"}


class TestNetTables:
    def test_inspect_default_table(self, capsys):
        assert main(["net", "tables", "inspect"]) == 0
        out = capsys.readouterr().out
        assert "Surrogate table" in out
        assert "CoS delivery" in out
        for rate in (6, 54):
            assert f"\n{rate} " in out or out.startswith(f"{rate} ")

    def test_build_quick_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        assert main(["--quiet", "net", "tables", "build", "--quick",
                     "--out", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["net", "tables", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "8 pkts x 1 seed(s)" in out

    def test_build_quick_without_out_errors(self, tmp_path, monkeypatch,
                                            capsys):
        """A --quick build never replaces the committed table."""
        from repro.phy import surrogate

        def build(*args, **kwargs):
            raise AssertionError("a --quick build without --out ran")

        monkeypatch.setattr(surrogate, "default_table_path",
                            lambda: tmp_path / "default.json")
        monkeypatch.setattr(surrogate, "build_surrogate_table", build)
        assert main(["net", "tables", "build", "--quick"]) == 2
        assert "pass --out PATH" in capsys.readouterr().err
        assert not (tmp_path / "default.json").exists()

    def test_inspect_missing_table_errors(self, tmp_path):
        assert main(["net", "tables", "inspect",
                     str(tmp_path / "nope.json")]) == 2


class TestNetCompare:
    def test_compare_two_controllers(self, small_scenario_path, capsys):
        assert main([
            "net", "compare", "--scenario", small_scenario_path,
            "--controllers", "cos-feedback,explicit-feedback",
            "--trials", "1", "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        assert "Rate-controller matrix" in out
        report = json.loads(out[out.index("{"):])
        assert report["scenario"] == "hidden-node"
        assert set(report["controllers"]) == {"cos-feedback",
                                              "explicit-feedback"}

    def test_compare_unknown_controller_errors(self, small_scenario_path):
        assert main(["net", "compare", "--scenario", small_scenario_path,
                     "--controllers", "bogus", "--trials", "1"]) == 2

    def test_compare_unknown_scenario_errors(self):
        assert main(["net", "compare", "--scenario", "no-such",
                     "--trials", "1"]) == 2
