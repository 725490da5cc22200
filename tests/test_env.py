"""Tests for :mod:`repro.utils.env` — shared environment-flag parsing."""

import pytest

from repro.utils.env import env_int, env_str

FLAG = "REPRO_TEST_FLAG"


class TestEnvInt:
    def test_parses_integers(self, monkeypatch):
        monkeypatch.setenv(FLAG, "4")
        assert env_int(FLAG) == 4
        monkeypatch.setenv(FLAG, "  -2 ")
        assert env_int(FLAG) == -2

    def test_unset_and_empty_return_default(self, monkeypatch):
        monkeypatch.delenv(FLAG, raising=False)
        assert env_int(FLAG, 7) == 7
        monkeypatch.setenv(FLAG, "   ")
        assert env_int(FLAG, 7) == 7

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(FLAG, "many")
        with pytest.raises(ValueError, match=FLAG):
            env_int(FLAG)


class TestEnvStr:
    def test_returns_value(self, monkeypatch):
        monkeypatch.setenv(FLAG, "out.json")
        assert env_str(FLAG) == "out.json"

    def test_empty_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(FLAG, "")
        assert env_str(FLAG) is None
        assert env_str(FLAG, "fallback") == "fallback"

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(FLAG, raising=False)
        assert env_str(FLAG) is None


class TestConsumers:
    """The flags the repo actually reads go through these helpers."""

    def test_default_workers_reads_env(self, monkeypatch):
        from repro.engine import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        assert default_workers() == 0  # clamped
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 0
