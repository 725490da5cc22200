"""Tests for :mod:`repro.engine` — the deterministic parallel trial engine.

Covers the contract promised in ``docs/engine.md``: chunking, seed-spawn
determinism (serial vs. process pool bit-for-bit), structured error
propagation with trial context, and worker-state reuse via the
per-worker ``init`` hook.
"""

import logging
import os

import pytest

from repro import engine
from repro.engine.executors import _chunk
from repro.engine.worker import run_chunk, worker_state


# ---------------------------------------------------------------------------
# Module-level trial functions (must be picklable for the process pool).
# ---------------------------------------------------------------------------

def _draw_trial(spec):
    """Deterministic-per-spec random draw: the bit-exactness workhorse."""
    rng = spec.rng()
    return (spec["x"], float(rng.normal()), rng.integers(0, 1 << 30).item())


def _child_draw_trial(spec):
    """Exercise named sub-streams: order of child requests must not matter."""
    b = float(spec.child_rng(1).normal())
    a = float(spec.child_rng(0).normal())
    a2 = float(spec.child_rng(0).normal())
    return (a, b, a2)


def _square_trial(spec):
    return spec["x"] ** 2


def _failing_trial(spec):
    if spec["x"] == 3:
        raise ValueError("boom at x=3")
    return spec["x"]


def _pid_trial(spec):
    return os.getpid()


def _state_trial(spec):
    state = worker_state()
    if "engine_test.obj" not in state:
        state["engine_test.obj"] = object()
    return id(state["engine_test.obj"])


def _init_hook(tag):
    worker_state()["engine_test.tag"] = tag


def _tag_trial(spec):
    return worker_state()["engine_test.tag"]


# ---------------------------------------------------------------------------
# Specs and seeding
# ---------------------------------------------------------------------------

class TestSpecs:
    def test_make_specs_indices_and_params(self):
        specs = engine.make_specs([{"x": 10}, {"x": 20}], seed=1)
        assert [s.index for s in specs] == [0, 1]
        assert specs[0]["x"] == 10 and specs[1].get("x") == 20
        assert specs[0].get("missing", "d") == "d"

    def test_specs_seeded_by_spawn_in_order(self):
        a = engine.make_specs([{}] * 4, seed=7)
        b = engine.make_specs([{}] * 4, seed=7)
        for sa, sb in zip(a, b):
            assert sa.rng().integers(1 << 30) == sb.rng().integers(1 << 30)
        # Different root seed → different streams.
        c = engine.make_specs([{}] * 4, seed=8)
        assert a[0].rng().normal() != c[0].rng().normal()

    def test_streams_independent_across_indices(self):
        specs = engine.make_specs([{}] * 3, seed=0)
        draws = {float(s.rng().normal()) for s in specs}
        assert len(draws) == 3

    def test_child_rng_pure_and_named(self):
        (spec,) = engine.make_specs([{}], seed=5)
        # Same child → same stream, regardless of call order or count.
        assert spec.child_rng(2).normal() == spec.child_rng(2).normal()
        # Distinct children → distinct streams, and none equals the main.
        vals = {float(spec.child_rng(c).normal()) for c in (0, 1, 2)}
        vals.add(float(spec.rng().normal()))
        assert len(vals) == 4

    def test_unseeded_spec_refuses_rng(self):
        spec = engine.TrialSpec(index=0, params={})
        with pytest.raises(ValueError, match="make_specs"):
            spec.rng()

    def test_seed_entropy_reports_root_and_spawn_key(self):
        specs = engine.make_specs([{}] * 2, seed=42)
        ent = specs[1].seed_entropy
        assert ent["entropy"] == 42
        assert ent["spawn_key"] == (1,)


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

class TestChunking:
    def test_chunk_partitions_in_order(self):
        specs = engine.make_specs([{"x": i} for i in range(7)], seed=0)
        chunks = _chunk(specs, 3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [s.index for c in chunks for s in c] == list(range(7))

    def test_chunk_size_floor_is_one(self):
        specs = engine.make_specs([{"x": i} for i in range(3)], seed=0)
        assert [len(c) for c in _chunk(specs, 0)] == [1, 1, 1]

    def test_default_chunk_size_targets_chunks_per_worker(self):
        ex = engine.ProcessExecutor(2)
        # 100 specs over 2 workers * 4 chunks each → ceil(100/8) = 13.
        assert ex._default_chunk_size(100) == 13
        assert ex._default_chunk_size(1) == 1

    def test_results_reassembled_in_spec_order(self):
        params = [{"x": i} for i in range(11)]
        out = engine.run_sweep(params, _square_trial, seed=0, workers=0,
                               chunk_size=4)
        assert out == [i ** 2 for i in range(11)]


# ---------------------------------------------------------------------------
# Determinism: serial vs process pool
# ---------------------------------------------------------------------------

class TestDeterminism:
    PARAMS = [{"x": i} for i in range(10)]

    def test_serial_vs_parallel_bit_identical(self):
        serial = engine.run_sweep(self.PARAMS, _draw_trial, seed=3, workers=0)
        parallel = engine.run_sweep(self.PARAMS, _draw_trial, seed=3, workers=2)
        assert serial == parallel

    def test_chunk_size_does_not_change_results(self):
        base = engine.run_sweep(self.PARAMS, _draw_trial, seed=3, workers=0)
        for size in (1, 3, 10):
            out = engine.run_sweep(self.PARAMS, _draw_trial, seed=3, workers=2,
                                   chunk_size=size)
            assert out == base

    def test_child_streams_identical_across_executors(self):
        serial = engine.run_sweep(self.PARAMS, _child_draw_trial, seed=9,
                                  workers=0)
        parallel = engine.run_sweep(self.PARAMS, _child_draw_trial, seed=9,
                                    workers=2)
        assert serial == parallel
        # Re-requesting child 0 restarts the stream (purity).
        for a, _b, a2 in serial:
            assert a == a2

    def test_pool_actually_uses_worker_processes(self):
        pids = engine.run_sweep([{}] * 6, _pid_trial, seed=0, workers=2,
                                chunk_size=1)
        assert os.getpid() not in pids


# ---------------------------------------------------------------------------
# Error propagation
# ---------------------------------------------------------------------------

class TestErrors:
    PARAMS = [{"x": i} for i in range(6)]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failure_surfaces_as_trial_error_with_context(self, workers):
        with pytest.raises(engine.TrialError) as exc_info:
            engine.run_sweep(self.PARAMS, _failing_trial, seed=0,
                             workers=workers)
        err = exc_info.value
        assert err.index == 3
        assert err.params == {"x": 3}
        assert err.seed_entropy["spawn_key"] == (3,)
        assert "boom at x=3" in str(err)
        assert "ValueError" in err.traceback_text

    def test_serial_chunk_stops_at_first_failure(self):
        specs = engine.make_specs(self.PARAMS, seed=0)
        chunk = run_chunk(_failing_trial, specs)
        assert chunk.error is not None
        assert chunk.error["index"] == 3
        assert chunk.results == [0, 1, 2]  # nothing past the failure ran

    def test_trial_error_message_mentions_params_and_seed(self):
        err = engine.TrialError(
            "bad", index=4, params={"snr": 12.0},
            seed_entropy={"entropy": 1, "spawn_key": (4,)},
            traceback_text="Traceback ...",
        )
        text = str(err)
        assert "trial 4 failed: bad" in text
        assert "'snr': 12.0" in text
        assert "spawn_key" in text


# ---------------------------------------------------------------------------
# Worker state and init hooks
# ---------------------------------------------------------------------------

class TestWorkerState:
    def test_state_reused_within_a_process(self):
        ids = engine.run_sweep([{}] * 4, _state_trial, seed=0, workers=0,
                               chunk_size=2)
        assert len(set(ids)) == 1  # one shared object across all trials

    @pytest.mark.parametrize("workers", [0, 2])
    def test_init_hook_runs_before_trials(self, workers):
        tags = engine.run_sweep([{}] * 4, _tag_trial, seed=0, workers=workers,
                                init=_init_hook, init_args=("ready",))
        assert tags == ["ready"] * 4


# ---------------------------------------------------------------------------
# Executor selection
# ---------------------------------------------------------------------------

class TestExecutorSelection:
    def test_make_executor_kinds(self):
        assert isinstance(engine.make_executor(0), engine.SerialExecutor)
        assert isinstance(engine.make_executor(2), engine.ProcessExecutor)
        assert isinstance(engine.make_executor(), engine.SerialExecutor)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="got -2"):
            engine.make_executor(-2)
        with pytest.raises(ValueError, match="got -1"):
            engine.run_sweep([{}], _square_trial, seed=0, workers=-1)

    def test_process_executor_requires_workers(self):
        with pytest.raises(ValueError):
            engine.ProcessExecutor(0)

    def test_empty_sweep(self):
        assert engine.run_sweep([], _square_trial, seed=0, workers=0) == []
        assert engine.run_sweep([], _square_trial, seed=0, workers=2) == []

    def test_progress_logging_emits_debug_lines(self):
        # Attach a handler directly: other tests may have configured the
        # "repro" logger with propagate=False, which hides records from
        # caplog's root handler.
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.engine")
        handler = _Capture(level=logging.DEBUG)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            engine.run_sweep([{"x": i} for i in range(3)], _square_trial,
                             seed=0, workers=0, label="unit")
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        assert any("unit" in rec.getMessage() for rec in records)


# ---------------------------------------------------------------------------
# Harness equality: real experiments, serial vs parallel
# ---------------------------------------------------------------------------

def _fig2_points(workers):
    from repro.experiments import fig2

    return fig2.run(workers=workers).points


def _fig9_points(workers):
    from repro.experiments import fig9

    return fig9.run(n_packets=24, workers=workers).points


@pytest.mark.slow
class TestHarnessEquality:
    """Small figure runs must be identical for workers=0 vs 2."""

    def test_fig2_serial_vs_parallel(self):
        assert _fig2_points(0) == _fig2_points(2)

    def test_fig9_serial_vs_parallel(self):
        assert _fig9_points(0) == _fig9_points(2)
