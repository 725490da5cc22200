"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_link_defaults(self):
        args = build_parser().parse_args(["link"])
        assert args.snr == 15.0
        assert args.position == "A"
        assert args.packets == 50

    def test_invalid_position_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "--position", "Q"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "802.11a" in out
        assert "54" in out and "22.4" in out

    def test_link_quick(self, capsys):
        code = main(
            ["link", "--packets", "4", "--payload", "200", "--snr", "15",
             "--seed", "5", "--predictor"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "data PRR" in out

    @pytest.mark.parametrize("command", [
        ["experiments", "fig2"],
        ["report", "--stages", "fig2"],
        ["net", "run", "hidden-node"],
        ["net", "compare"],
        ["net", "tables", "build", "--quick", "--out", "table.json"],
    ], ids=lambda c: " ".join(c[:3]))
    def test_negative_workers_exits_2(self, command, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)  # nothing may be written, even here
        assert main(command + ["--workers", "-2"]) == 2
        captured = capsys.readouterr()
        assert "workers must be 0 (serial) or more, got -2" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "fig9" not in out.lower().replace("fig. 9", "")
