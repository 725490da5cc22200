"""Content-addressed trial result store — resumable, shareable sweeps.

Because a trial's behaviour (randomness included) is a pure function of
its :class:`~repro.engine.spec.TrialSpec` — the engine's determinism
contract — a trial *result* is a pure function of ``(trial function,
params, seed)``.  That makes results content-addressable: hash the spec,
key the result by the hash, and a re-run of a half-finished or superset
sweep replays every completed trial from disk bit-for-bit while only the
delta executes.

Key derivation (:func:`spec_key`)
---------------------------------
``sha256`` over a canonical JSON rendering of

* the trial function's dotted name (``module.qualname``) — two harnesses
  with identical params never collide;
* the spec's ``params`` via :func:`canonical` (order-insensitive dicts,
  dataclasses by field, bytes/ndarrays by content);
* the spec's seed entropy (root entropy + spawn key);
* the store *salt* — see below.

The key text is built in one pass by :func:`canonical_json`, which is
byte-identical to ``json.dumps(canonical(obj), sort_keys=True,
separators=(",", ":"))`` but never materialises the intermediate
structure; :func:`canonical` stays the reference definition.  Callers
that key many specs sharing param objects pass a ``memo`` (see
:func:`spec_key`) so each shared object is rendered once.

Objects that cannot be canonicalised deterministically (default
``object`` reprs would embed memory addresses) raise
:class:`UncacheableSpec`; the engine treats such specs as permanent
misses rather than poisoning the cache with unstable keys.

The invalidation salt
---------------------
Cached results are only valid for the code that produced them.  The salt
(:func:`store_salt`) folds in everything that can change a result
without changing the spec:

* a store schema version (bump to flush every cache);
* the package version (``repro.__version__``);
* the active compute-kernel backend name — backends are bit-equivalent
  by test, but the salt makes a backend regression visible as a cache
  miss instead of a silently stale hit;
* the measured-PHY surrogate table's content hash (when the default
  table file exists) — rebuilding the table must invalidate every
  result that may have consulted it.

On-disk layout
--------------
::

    <root>/
      store-meta.json        # human-readable salt + schema (diagnostic)
      objects/<k[:2]>/<k>.pkl

Entries are pickles written to a temp file in the destination directory
and ``os.replace``-d into place, so concurrent writers (process pools,
parallel CI jobs sharing one directory) can race freely: the rename is
atomic and every writer produces identical bytes for identical keys.
Corrupt or truncated entries read as misses.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pickle
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "STORE_SCHEMA",
    "UncacheableSpec",
    "canonical",
    "canonical_json",
    "store_salt",
    "spec_key",
    "ResultStore",
    "get_default_store",
    "set_default_store",
    "resolve_store",
]

log = logging.getLogger("repro.engine.store")

#: Bump to invalidate every existing store entry (layout/semantics change).
#: 2: lensed ``NetResult`` events are schema-2 ``net.*`` records and the
#: wall-clock ``profile`` field is gone.  3: a Fig. 9 ``CapacityPoint``
#: whose zero-silence baseline fails carries no Rm instead of Rm = 0 at
#: PRR 1.
STORE_SCHEMA = 3


class UncacheableSpec(ValueError):
    """Raised when a spec's params cannot be canonicalised deterministically."""


# ---------------------------------------------------------------------------
# Canonicalisation
# ---------------------------------------------------------------------------

def canonical(obj: Any) -> Any:
    """Render ``obj`` as a deterministic JSON-able structure.

    Dicts sort by canonicalised key; dataclasses serialise as
    ``{type, fields}``; bytes and numpy arrays by content; sets sorted.
    Raises :class:`UncacheableSpec` for anything whose rendering would
    not be stable across processes (e.g. default ``object`` reprs).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    # Before ``float``: ``np.float64`` subclasses it, and its repr
    # ("np.float64(0.5)") varies with the numpy version.
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(obj)).hexdigest()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        rendered = sorted(
            json.dumps(canonical(v), sort_keys=True, separators=(",", ":"))
            for v in obj
        )
        return {"__set__": rendered}
    if isinstance(obj, dict):
        pairs = sorted(
            (json.dumps(canonical(k), sort_keys=True, separators=(",", ":")),
             canonical(v))
            for k, v in obj.items()
        )
        return {"__map__": pairs}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(obj).tobytes()
            ).hexdigest(),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, Path):
        return {"__path__": str(obj)}
    raise UncacheableSpec(
        f"cannot build a deterministic cache key for {type(obj).__module__}."
        f"{type(obj).__qualname__} (value {obj!r:.120})"
    )


_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(obj: Any) -> str:
    """``json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))``,
    built in one pass.

    Raises :class:`UncacheableSpec` exactly when :func:`canonical` does.
    """
    out: List[str] = []
    _encode(obj, out)
    return "".join(out)


def _reference_json(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def _encode(obj: Any, out: List[str]) -> None:
    """Append the text of :func:`canonical_json` for ``obj`` to ``out``.

    Exact-type dispatch: subclasses of the builtins (``np.float64`` is a
    ``float``), bytes, arrays, sets, paths and numpy scalars are
    rendered through :func:`canonical`.
    """
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif t is float:
        # A float repr is ASCII with no quote or backslash: no escaping.
        out.append('{"__float__":"')
        out.append(repr(obj))
        out.append('"}')
    elif t is int:
        out.append(repr(obj))
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is tuple or t is list:
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _encode(value, out)
        out.append("]")
    elif t is dict:
        _encode_map(obj, out, None)
    else:
        layout = _dataclass_layout(t)
        if layout is None:
            out.append(_reference_json(obj))
            return
        head, fields = layout
        out.append(head)
        for name, prefix in fields:
            out.append(prefix)
            _encode(getattr(obj, name), out)
        out.append("}}")


def _encode_map(mapping: Dict, out: List[str], memo: Optional[Dict]) -> None:
    """``{"__map__": [[key text, value], ...]}`` sorted by key text."""
    pairs = sorted(
        ((_encode_str(k) if type(k) is str else canonical_json(k), v)
         for k, v in mapping.items()),
        key=itemgetter(0),
    )
    if len({text for text, _ in pairs}) != len(pairs):
        # Two keys render alike; canonical() breaks the tie by value.
        out.append(_reference_json(mapping))
        return
    out.append('{"__map__":[')
    for i, (text, value) in enumerate(pairs):
        out.append(",[" if i else "[")
        out.append(_encode_str(text))
        out.append(",")
        if memo is None:
            _encode(value, out)
        else:
            out.append(_memo_text(value, memo))
        out.append("]")
    out.append("]}")


def _memo_text(value: Any, memo: Dict[int, Tuple[Any, str]]) -> str:
    """``canonical_json(value)`` through ``memo`` (``id -> (object, text)``).

    An entry holds its object, so no other object can take that id while
    the memo lives.  The text is only as fresh as the object, which is
    why a memo is scoped to one sweep and never kept at module level.
    """
    hit = memo.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    text = canonical_json(value)
    memo[id(value)] = (value, text)
    return text


_BUILTIN_BASES = (str, int, float, bytes, bytearray, list, tuple, set,
                  frozenset, dict)


@functools.lru_cache(maxsize=None)
def _dataclass_layout(
    cls: type,
) -> Optional[Tuple[str, Tuple[Tuple[str, str], ...]]]:
    """``(head, ((field, '"field":'), ...))`` for the type of a dataclass
    instance, fields in sorted order; ``None`` for any other type.

    The cache holds the class object, not its id.  A dataclass that
    subclasses a builtin is left to :func:`canonical`, which renders it
    as that builtin.
    """
    if not dataclasses.is_dataclass(cls) or issubclass(cls, _BUILTIN_BASES):
        return None
    names = sorted(f.name for f in dataclasses.fields(cls))
    head = ('{"__dataclass__":'
            + _encode_str(f"{cls.__module__}.{cls.__qualname__}")
            + ',"fields":{')
    return head, tuple(
        (name, ("," if i else "") + _encode_str(name) + ":")
        for i, name in enumerate(names)
    )


# ---------------------------------------------------------------------------
# Salt
# ---------------------------------------------------------------------------

def _surrogate_table_fingerprint() -> Optional[str]:
    """Content hash of the active surrogate table file (None when absent)."""
    try:
        from repro.phy.surrogate import default_table_path

        path = default_table_path()
        if not path.exists():
            return None
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    except Exception:  # pragma: no cover — defensive; salt must not crash
        return None


def store_salt() -> Dict[str, Any]:
    """Everything that invalidates cached results without changing a spec."""
    import repro
    from repro.kernels.dispatch import backend_name

    return {
        "schema": STORE_SCHEMA,
        "code": repro.__version__,
        "kernel_backend": backend_name(),
        "surrogate_table": _surrogate_table_fingerprint(),
    }


def _fn_token(fn: Callable) -> str:
    """Stable identity of a trial function: its dotted module path."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname or "<lambda>" in qualname:
        raise UncacheableSpec(
            f"trial function {fn!r} is not a module-level callable; "
            "results cannot be cached under a stable key"
        )
    return f"{module}.{qualname}"


def spec_key(fn: Callable, spec, salt: Optional[Dict[str, Any]] = None,
             *, memo: Optional[Dict] = None) -> str:
    """The content address of ``fn(spec)``: a 64-hex-char sha256 digest.

    The digest is over ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` where ``payload`` maps ``fn`` to the
    function's dotted name and ``params``, ``seed`` (the spec's seed
    entropy) and ``salt`` to their :func:`canonical` renderings.

    ``memo`` (an empty dict, shared across the specs of one sweep)
    renders each top-level param value once per object; it holds those
    objects, so it must be dropped with the sweep, and they must not be
    mutated while it lives.

    Raises :class:`UncacheableSpec` when ``fn`` or ``spec.params`` cannot
    be rendered deterministically.  The spec's ``index`` is deliberately
    **not** part of the key — position in the sweep does not affect the
    result, only the seed does, so a superset sweep re-hits the subset's
    entries.
    """
    salt_text = canonical_json(salt if salt is not None else store_salt())
    return _spec_key(fn, spec, salt_text, memo)


def _spec_key(fn: Callable, spec, salt_text: str, memo: Optional[Dict]) -> str:
    out = ['{"fn":', _encode_str(_fn_token(fn)), ',"params":']
    params = spec.params
    if type(params) is dict:
        _encode_map(params, out, memo)
    else:
        _encode(params, out)
    out.append(',"salt":')
    out.append(salt_text)
    out.append(',"seed":')
    _encode(spec.seed_entropy, out)
    out.append("}")
    return hashlib.sha256("".join(out).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultStore:
    """Spec-hash-keyed result store with atomic, concurrent-safe writes.

    ``hits`` / ``misses`` / ``writes`` count this instance's traffic;
    :func:`~repro.engine.run_trials` also adds each call's hits and
    misses to the process counters ``repro_store_hits_total`` /
    ``repro_store_misses_total`` (:mod:`repro.obs.metrics`), counted in
    the submitting process whatever the executor.
    """

    def __init__(self, root: Union[str, Path], *,
                 salt: Optional[Dict[str, Any]] = None) -> None:
        self.root = Path(root)
        self.salt = dict(salt) if salt is not None else store_salt()
        self._salt_text = canonical_json(self.salt)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._objects = self.root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._write_meta()

    def _write_meta(self) -> None:
        meta = self.root / "store-meta.json"
        if meta.exists():
            return
        try:
            _atomic_write_bytes(
                meta,
                (json.dumps({"schema": STORE_SCHEMA, "salt": canonical(self.salt)},
                            indent=2, sort_keys=True) + "\n").encode(),
            )
        except OSError:  # pragma: no cover — diagnostic file only
            pass

    # -- keys ----------------------------------------------------------

    def key_for(self, fn: Callable, spec,
                memo: Optional[Dict] = None) -> Optional[str]:
        """The entry key for ``fn(spec)``; ``None`` when uncacheable.

        ``memo`` is :func:`spec_key`'s per-sweep render memo.
        """
        try:
            return _spec_key(fn, spec, self._salt_text, memo)
        except UncacheableSpec as exc:
            log.debug("uncacheable spec %s: %s", getattr(spec, "index", "?"), exc)
            return None

    def _path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.pkl"

    # -- access --------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; corrupt/truncated entries read as misses."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:
            log.warning("corrupt store entry %s — treating as a miss", path)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Persist ``value`` under ``key`` (atomic rename; False on failure).

        Unpicklable values are skipped with a debug log — caching is an
        optimisation, never a correctness requirement.
        """
        path = self._path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            log.debug("result for %s is not picklable; not cached", key)
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_bytes(path, payload)
        except OSError as exc:  # disk full, permissions, ...
            log.warning("could not write store entry %s: %s", path, exc)
            return False
        self.writes += 1
        return True

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob("*/*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover — debugging nicety
        return (f"ResultStore({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, writes={self.writes})")


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write-temp + atomic rename in the destination directory.

    The temp suffix is deliberately NOT the target's: a process killed
    mid-write must not leave debris that entry globs (``*.pkl``) or
    :meth:`ResultStore.__len__` would count as a real entry.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-",
                               suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Default store (the CLI's --store)
# ---------------------------------------------------------------------------

_default_store: Optional[ResultStore] = None


def set_default_store(store: Optional[ResultStore]) -> Optional[ResultStore]:
    """Install the process-wide default store (None disables caching);
    return the one it replaces."""
    global _default_store
    previous = _default_store
    _default_store = store
    return previous


def get_default_store() -> Optional[ResultStore]:
    """The store :func:`set_default_store` installed (None: caching off)."""
    return _default_store


def resolve_store(store: Optional[ResultStore]) -> Optional[ResultStore]:
    """Engine-side resolution of a ``store=`` argument: a
    :class:`ResultStore` is used as-is, ``None`` defers to the default."""
    return get_default_store() if store is None else store
