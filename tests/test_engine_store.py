"""Tests for :mod:`repro.engine.store` — the content-addressed trial cache.

The determinism property under test: a store-cached replay of a sweep is
bit-for-bit identical to a fresh run of ``run_sweep``, because trial
results are pure functions of ``(trial fn, params, seed)`` and the key
hashes exactly those.  A sweep
SIGKILLed mid-flight resumes from the store with zero recomputation.
"""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.engine import core
from repro.engine import store as store_mod
from repro.engine.spec import make_specs
from repro.engine.store import (
    ResultStore,
    UncacheableSpec,
    canonical,
    canonical_json,
    resolve_store,
    set_default_store,
    spec_key,
)
from repro.obs.metrics import get_registry

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _no_ambient_store():
    """A prior set_default_store may not leak in, nor this test's out."""
    previous = set_default_store(None)
    yield
    set_default_store(previous)


def _store_counts():
    """The process's (hits, misses) store counters, for deltas."""
    registry = get_registry()
    return (registry.counter("repro_store_hits_total").value,
            registry.counter("repro_store_misses_total").value)


# ---------------------------------------------------------------------------
# Module-level trial functions (stable dotted names for cache keys).
# ---------------------------------------------------------------------------

def _draw_trial(spec):
    rng = spec.rng()
    return (spec["x"], float(rng.normal()), rng.integers(0, 1 << 30).item())


def _object_param_trial(spec):
    return spec["x"]


@dataclasses.dataclass(frozen=True)
class _Config:
    snr_db: float
    payload: bytes


# ---------------------------------------------------------------------------
# Canonicalisation
# ---------------------------------------------------------------------------

class TestCanonical:
    def test_dict_key_order_is_irrelevant(self):
        a = canonical({"b": 1, "a": 2})
        b = canonical({"a": 2, "b": 1})
        assert a == b

    def test_scalars_and_containers_round_trip_to_json(self):
        obj = {"f": 0.1, "i": 3, "s": "x", "t": (1, 2), "n": None,
               "set": {3, 1, 2}, "b": b"\x00\xff"}
        text = json.dumps(canonical(obj), sort_keys=True)
        assert text == json.dumps(canonical(dict(obj)), sort_keys=True)

    def test_float_precision_survives(self):
        assert canonical(0.1) == canonical(0.1 + 1e-17 * 0)  # same value
        assert canonical(1.0) != canonical(1.0 + 1e-15)

    def test_ndarray_by_content(self):
        a = canonical(np.arange(4, dtype=np.float64))
        b = canonical(np.arange(4, dtype=np.float64))
        c = canonical(np.arange(4, dtype=np.float32))
        assert a == b
        assert a != c  # dtype is part of the rendering

    def test_numpy_scalars_match_python_scalars(self):
        assert canonical(np.int64(5)) == canonical(5)

    def test_numpy_floats_render_like_python_floats(self):
        # np.float64 subclasses float; its repr names numpy.
        assert canonical(np.float64(0.5)) == {"__float__": "0.5"}
        assert canonical(np.float32(0.5)) == canonical(0.5)
        assert canonical_json([np.float64(0.1)]) == canonical_json([0.1])
        salt = {"schema": 1}
        a = make_specs([{"x": np.float64(2.5)}], seed=0)[0]
        b = make_specs([{"x": 2.5}], seed=0)[0]
        assert spec_key(_draw_trial, a, salt) == spec_key(_draw_trial, b, salt)

    def test_dataclass_by_type_and_fields(self):
        a = canonical(_Config(snr_db=10.0, payload=b"hi"))
        b = canonical(_Config(snr_db=10.0, payload=b"hi"))
        c = canonical(_Config(snr_db=11.0, payload=b"hi"))
        assert a == b
        assert a != c

    def test_arbitrary_objects_are_uncacheable(self):
        class Opaque:
            pass

        with pytest.raises(UncacheableSpec):
            canonical(Opaque())


@dataclasses.dataclass
class _Node:
    label: object
    children: object


def _reference_json(obj):
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def _outcome(render, obj):
    try:
        return render(obj)
    except Exception as exc:  # both renderings must fail alike
        return type(exc)


_hashable = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.builds(np.float64, st.floats()) | st.builds(np.float32, st.floats(width=32))
    | st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))
    | st.builds(np.bool_, st.booleans())
    | st.builds(np.array, st.lists(st.floats(), max_size=4))
    | st.builds(Path, st.text(alphabet="ab/.", max_size=6))
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.tuples(inner, inner)
        | st.dictionaries(_hashable, inner, max_size=4)
        | st.sets(_hashable, max_size=4)
        | st.builds(_Node, inner, inner)
    ),
    max_leaves=12,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_one_pass_text_equals_canonical_json(self, obj):
        assert _outcome(canonical_json, obj) == _outcome(_reference_json, obj)

    def test_keys_that_render_alike_sort_by_value(self):
        # Two NaN keys are distinct dict keys with one rendering.
        obj = {float("nan"): 2, float("nan"): 1}
        assert canonical_json(obj) == _reference_json(obj)

    def test_unhandled_types_fail_like_canonical(self):
        class Opaque:
            pass

        with pytest.raises(UncacheableSpec):
            canonical_json({"x": [Opaque()]})

    def test_memo_renders_a_shared_object_once(self, monkeypatch):
        shared = _Config(snr_db=10.0, payload=b"hi")
        specs = make_specs([{"config": shared, "i": i} for i in range(3)], seed=0)
        salt = {"schema": 1}
        plain = [spec_key(_draw_trial, spec, salt) for spec in specs]
        rendered = []
        real = store_mod.canonical_json
        monkeypatch.setattr(store_mod, "canonical_json",
                            lambda obj: rendered.append(obj) or real(obj))
        memo = {}
        assert [spec_key(_draw_trial, spec, salt, memo=memo)
                for spec in specs] == plain
        assert sum(obj is shared for obj in rendered) == 1
        assert memo[id(shared)][0] is shared

    def test_memo_ignores_an_entry_for_another_object(self):
        spec = make_specs([{"x": [1.5]}], seed=0)[0]
        salt = {"schema": 1}
        x = spec["x"]
        memo = {id(x): ([1.5], "stale")}  # same id, different object
        assert spec_key(_draw_trial, spec, salt, memo=memo) == \
            spec_key(_draw_trial, spec, salt)


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

class TestSpecKey:
    def test_index_does_not_affect_key(self):
        salt = {"schema": 1}
        sub = make_specs([{"x": 5}], seed=0)[0]
        # The same params at a different position in a superset sweep:
        sup = make_specs([{"x": 5}, {"x": 6}], seed=0)[0]
        assert spec_key(_draw_trial, sub, salt) == spec_key(_draw_trial, sup, salt)

    def test_seed_params_fn_and_salt_all_matter(self):
        salt = {"schema": 1}
        base = spec_key(_draw_trial, make_specs([{"x": 5}], seed=0)[0], salt)
        assert spec_key(_draw_trial, make_specs([{"x": 5}], seed=1)[0],
                        salt) != base
        assert spec_key(_draw_trial, make_specs([{"x": 6}], seed=0)[0],
                        salt) != base
        assert spec_key(_object_param_trial, make_specs([{"x": 5}], seed=0)[0],
                        salt) != base
        assert spec_key(_draw_trial, make_specs([{"x": 5}], seed=0)[0],
                        {"schema": 2}) != base

    def test_lambdas_are_uncacheable(self):
        spec = make_specs([{"x": 5}], seed=0)[0]
        with pytest.raises(UncacheableSpec):
            spec_key(lambda s: 0, spec, {"schema": 1})


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        assert store.get(key) == (False, None)
        assert store.put(key, {"value": 42})
        assert store.get(key) == (True, {"value": 42})
        assert len(store) == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        hit, _ = store.get(key)
        assert hit is False

    def test_unpicklable_value_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put("ef" + "0" * 62, lambda: None) is False
        assert len(store) == 0

    def test_key_for_matches_spec_key_under_the_store_salt(self, tmp_path):
        store = ResultStore(tmp_path, salt={"schema": 1, "code": "x"})
        spec = make_specs([{"x": 5, "c": _Config(1.0, b"")}], seed=3)[0]
        assert store.key_for(_draw_trial, spec) == spec_key(_draw_trial, spec,
                                                            store.salt)
        assert store.key_for(_draw_trial, spec, {}) == spec_key(_draw_trial,
                                                                spec, store.salt)

    def test_meta_file_written(self, tmp_path):
        ResultStore(tmp_path)
        meta = json.loads((tmp_path / "store-meta.json").read_text())
        assert meta["schema"] == store_mod.STORE_SCHEMA


class TestResolveStore:
    def test_none_defers_instance_passes(self, tmp_path):
        assert resolve_store(None) is None  # no default configured
        store = ResultStore(tmp_path)
        assert resolve_store(store) is store

    def test_set_default_store_enables_the_default_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert set_default_store(store) is None
        assert resolve_store(None) is store
        other = ResultStore(tmp_path / "other")
        assert resolve_store(other) is other  # an explicit store wins
        assert set_default_store(None) is store
        assert resolve_store(None) is None


# ---------------------------------------------------------------------------
# Engine integration: cached replay == fresh run, bit for bit
# ---------------------------------------------------------------------------

PARAMS = [{"x": i} for i in range(9)]


class TestSweepReplay:
    def test_run_sweep_cold_then_warm_is_bit_for_bit(self, tmp_path):
        fresh = engine.run_sweep(PARAMS, _draw_trial, seed=11)
        store = ResultStore(tmp_path)
        cold = engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store)
        warm = engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store)
        assert pickle.dumps(cold) == pickle.dumps(fresh)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        assert store.writes == len(PARAMS)
        assert store.hits == len(PARAMS)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_store_counters_reach_the_registry(self, tmp_path, workers):
        # The submitting process counts: a cold pass misses every trial
        # and a warm pass hits every one, whatever the executor.
        store = ResultStore(tmp_path)
        hits0, misses0 = _store_counts()
        engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store,
                         workers=workers)
        hits1, misses1 = _store_counts()
        assert (hits1 - hits0, misses1 - misses0) == (0, len(PARAMS))
        engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store,
                         workers=workers)
        hits2, misses2 = _store_counts()
        assert (hits2 - hits1, misses2 - misses1) == (len(PARAMS), 0)

    def test_superset_sweep_re_hits_subset_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        engine.run_sweep(PARAMS[:4], _draw_trial, seed=11, store=store)
        sup = engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store)
        # Seed spawning is positional, so the first 4 specs are identical
        # and must replay rather than re-execute.
        assert store.hits == 4
        assert sup == engine.run_sweep(PARAMS, _draw_trial, seed=11)

    def test_partial_store_executes_only_the_delta(self, tmp_path):
        store = ResultStore(tmp_path)
        engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store)
        # Drop a few entries to simulate an interrupted earlier run.
        objects = sorted(store.root.glob("objects/*/*.pkl"))
        for path in objects[:3]:
            path.unlink()
        store.hits = store.writes = 0
        again = engine.run_sweep(PARAMS, _draw_trial, seed=11, store=store)
        assert again == engine.run_sweep(PARAMS, _draw_trial, seed=11)
        assert store.hits == len(PARAMS) - 3
        assert store.writes == 3

    def test_workers_pool_with_store_matches_serial(self, tmp_path):
        fresh = engine.run_sweep(PARAMS, _draw_trial, seed=11)
        store = ResultStore(tmp_path)
        pooled = engine.run_sweep(PARAMS, _draw_trial, seed=11, workers=2,
                                  store=store)
        warm = engine.run_sweep(PARAMS, _draw_trial, seed=11, workers=2,
                                store=store)
        assert pooled == fresh
        assert warm == fresh
        assert store.hits == len(PARAMS)

    def test_uncacheable_params_still_run(self, tmp_path):
        class Opaque:
            pass

        store = ResultStore(tmp_path)
        params = [{"x": 1, "obj": Opaque()}]
        out = engine.run_sweep(params, _object_param_trial, seed=0, store=store)
        assert out == [1]
        assert store.writes == 0
        # And a re-run executes again (permanent miss, not a crash).
        out2 = engine.run_sweep(params, _object_param_trial, seed=0, store=store)
        assert out2 == [1]

    def test_salt_change_invalidates(self, tmp_path):
        a = ResultStore(tmp_path, salt={"schema": 1})
        engine.run_sweep(PARAMS[:3], _draw_trial, seed=11, store=a)
        b = ResultStore(tmp_path, salt={"schema": 2})
        engine.run_sweep(PARAMS[:3], _draw_trial, seed=11, store=b)
        assert b.hits == 0
        assert b.writes == 3

    def test_surrogate_table_rotates_the_salt(self, tmp_path, monkeypatch):
        """A rebuilt surrogate table changes the store salt, so cached
        trials never replay across tables — no store-side special case
        needed."""
        from repro.engine.store import store_salt
        from repro.phy import surrogate

        committed = surrogate.default_table_path().read_bytes()
        fingerprints = {store_salt()["surrogate_table"]}
        for i, text in enumerate((committed + b"\n", b"{}")):
            path = tmp_path / f"table{i}.json"
            path.write_bytes(text)
            monkeypatch.setattr(surrogate, "_DEFAULT_TABLE", path)
            fingerprints.add(store_salt()["surrogate_table"])
        assert len(fingerprints) == 3
        monkeypatch.setattr(surrogate, "_DEFAULT_TABLE", tmp_path / "absent")
        assert store_salt()["surrogate_table"] is None


def _subprocess_env():
    """The killed sweep must be able to import repro *and* this module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _slow_trial(spec):
    rng = spec.rng()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    return float(rng.normal())


# ---------------------------------------------------------------------------
# Resume after SIGKILL: the store replays everything already finished
# ---------------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.engine import core
from repro.engine.spec import make_specs
from repro.engine.store import ResultStore
from tests.test_engine_store import _slow_trial

store = ResultStore(sys.argv[1])
params = [{"x": i} for i in range(10)]
core.run_trials(make_specs(params, seed=21), _slow_trial, store=store)
"""


class TestKillResume:
    def test_resume_after_kill_recomputes_only_the_delta(self, tmp_path):
        store_dir = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(store_dir)],
            env=_subprocess_env(), cwd=str(REPO),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # Wait until some trials have landed in the store, then SIGKILL
        # mid-sweep.
        deadline = time.monotonic() + 60.0
        n_before = 0
        while time.monotonic() < deadline:
            n_before = len(list(store_dir.glob("objects/*/*.pkl")))
            if n_before >= 2:
                break
            if proc.poll() is not None:  # pragma: no cover — too fast
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        n_before = len(list(store_dir.glob("objects/*/*.pkl")))
        assert 0 < n_before < 10, "kill landed before/after the window"

        params = [{"x": i} for i in range(10)]
        store = ResultStore(store_dir)
        hits0, _ = _store_counts()
        resumed = core.run_trials(make_specs(params, seed=21), _slow_trial,
                                  store=store)
        # Zero recomputation of finished trials, by the store counters...
        assert store.hits == n_before
        assert store.writes == 10 - n_before
        assert _store_counts()[0] - hits0 == n_before
        # ...and the resumed output equals a clean serial run, bit for bit.
        clean = core.run_trials(make_specs(params, seed=21), _slow_trial)
        assert pickle.dumps(resumed) == pickle.dumps(clean)
