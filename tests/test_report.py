"""Tests for the markdown report generator."""

from pathlib import Path

import pytest

from repro.analysis.report import generate_report, write_report


class TestGenerateReport:
    def test_subset_contains_only_requested(self):
        report = generate_report(stages=["fig2"])
        assert "Fig. 2" in report
        assert "Fig. 3" not in report
        assert "```" in report

    def test_header_has_no_scale_label(self):
        report = generate_report(stages=["fig2"])
        header = report.split("## ")[0]
        assert "scale" not in header and "Run mode" not in header

    def test_stage_output_lands_in_report(self, monkeypatch):
        from repro.experiments import runner

        # A stub stands in for every stage.
        monkeypatch.setattr(runner, "STAGES", [
            ("stub", "Stub", lambda workers, opts: print("stub ran") or []),
        ])
        report = generate_report(stages=["stub"])
        assert "## Stub" in report and "stub ran" in report

    def test_empty_stage_list(self):
        with pytest.raises(ValueError, match="no stage named; valid stages: fig2"):
            generate_report(stages=[])


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(tmp_path / "out.md", stages=["fig2"])
        assert Path(path).exists()
        assert "Fig. 2" in Path(path).read_text()

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "cli.md"
        assert main(["report", str(target), "--stages", "fig2"]) == 0
        assert target.exists()

    def test_cli_stages_needs_a_name(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "cli.md"
        with pytest.raises(SystemExit) as exc:
            main(["report", str(target), "--stages"])
        assert exc.value.code == 2
        assert "--stages" in capsys.readouterr().err
        assert not target.exists()
