"""Backend dispatch for the compute kernels.

A :class:`KernelBackend` bundles the Viterbi entry points (the only
kernels whose implementation differs per backend — demap, scramble,
energy detection and the RX deinterleave gather are single-pass
vectorized NumPy shared by both backends).  Resolution order:

1. an explicit :func:`set_backend` / :func:`use_backend` override;
2. the ``REPRO_KERNEL_BACKEND`` environment flag
   (``auto`` | ``numpy`` | ``cext``; unset or empty means ``auto``);
3. ``auto``: the on-demand-compiled C kernel (:mod:`repro.kernels.cext`)
   when a system C compiler exists, else the blocked NumPy backend.

Requesting ``cext`` on a machine without a C compiler logs a warning
once and falls back to ``numpy`` — no hard dependency anywhere.  Any
other name raises :class:`ValueError`.

**Exactness contract.**  Both backends implement the decode semantics of
the scalar oracle (:func:`repro.kernels.oracle.viterbi_decode_oracle`):
the same branch-tie rule and the same exact-arithmetic metric
recursion.  On inputs whose LLRs are exactly representable and whose
partial sums stay integral (hard decisions, integer-scaled soft values,
erasures — everything the equivalence suite feeds them), outputs are
bit-for-bit equal across backends *including every tie*.  On generic
float inputs the backends may round intermediate sums in different
orders; decoded bits still agree except on exact metric coincidences,
and CRC-verified golden packets pin the behaviour end to end.
"""

from __future__ import annotations

import contextlib
import os
import logging
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.kernels import cext
from repro.kernels.interleave import deinterleave_rx_numpy, warmup_rx_gather
from repro.kernels.scramble import prbs_sequence, prbs_state_table
from repro.kernels.tables import block_tables
from repro.kernels.viterbi_numpy import (
    DEFAULT_BLOCK,
    decode_blocked,
    decode_blocked_batch,
)

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_name",
    "decode_many",
    "deinterleave_rx",
    "get_backend",
    "set_backend",
    "use_backend",
    "warmup",
]

log = logging.getLogger("repro.kernels")

ENV_FLAG = "REPRO_KERNEL_BACKEND"


@dataclass(frozen=True)
class KernelBackend:
    """One resolved kernel implementation set.

    ``viterbi_decode(llrs, terminated)`` decodes a single rate-1/2 LLR
    stream; ``viterbi_decode_batch(llrs2d, terminated)`` an equal-length
    ``(B, 2n)`` batch in one call (the :func:`decode_many` helper groups
    mixed lengths).  ``prewarm()`` pays any one-off cost (C compilation,
    table builds) outside the measured path.
    """

    name: str
    viterbi_decode: Callable[[np.ndarray, bool], np.ndarray]
    viterbi_decode_batch: Callable[[np.ndarray, bool], np.ndarray]
    prewarm: Callable[[], None]


def _batch_via_single(
    decode: Callable[[np.ndarray, bool], np.ndarray]
) -> Callable[[np.ndarray, bool], np.ndarray]:
    def batch(llrs2d: np.ndarray, terminated: bool = True) -> np.ndarray:
        llrs2d = np.atleast_2d(np.asarray(llrs2d, dtype=np.float64))
        rows = [decode(row, terminated) for row in llrs2d]
        if not rows:
            return np.zeros((0, llrs2d.shape[1] // 2), dtype=np.uint8)
        return np.stack(rows)

    return batch


def _numpy_prewarm() -> None:
    for k in range(1, DEFAULT_BLOCK + 1):
        block_tables(k)
    warmup_rx_gather()
    prbs_sequence(1)
    prbs_state_table()
    # Touch every modulation's cached tables (import here: modulation
    # imports kernels.demap, keep the layering acyclic at module load).
    from repro.phy.modulation import MODULATIONS

    for mod in MODULATIONS.values():
        mod.prewarm()


_REGISTRY: Dict[str, KernelBackend] = {
    "numpy": KernelBackend(
        name="numpy",
        viterbi_decode=decode_blocked,
        viterbi_decode_batch=decode_blocked_batch,
        prewarm=_numpy_prewarm,
    ),
}


def _cext_prewarm() -> None:
    _numpy_prewarm()
    cext.ensure_built()


if cext.compiler_available():
    _REGISTRY["cext"] = KernelBackend(
        name="cext",
        viterbi_decode=cext.decode_c,
        viterbi_decode_batch=_batch_via_single(cext.decode_c),
        prewarm=_cext_prewarm,
    )

#: auto-resolution preference, best first.
_AUTO_ORDER = ("cext", "numpy")

_lock = threading.Lock()
_active: Optional[KernelBackend] = None
_warned_no_compiler = False


def available_backends() -> List[str]:
    """Names of the backends importable in this process."""
    return sorted(_REGISTRY)


def _resolve(name: Optional[str]) -> KernelBackend:
    global _warned_no_compiler
    requested = (name or os.environ.get(ENV_FLAG) or "auto").strip().lower()
    if requested == "auto":
        return next(_REGISTRY[n] for n in _AUTO_ORDER if n in _REGISTRY)
    if requested == "cext" and "cext" not in _REGISTRY:
        if not _warned_no_compiler:
            log.warning(
                "%s=cext requested but no C compiler was found; "
                "falling back to the NumPy backend",
                ENV_FLAG,
            )
            _warned_no_compiler = True
        return _REGISTRY["numpy"]
    try:
        return _REGISTRY[requested]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {requested!r}; "
            f"valid: auto, {', '.join(_AUTO_ORDER)}"
        ) from None


def get_backend() -> KernelBackend:
    """The active backend, resolving ``REPRO_KERNEL_BACKEND`` on first use."""
    global _active
    if _active is None:
        with _lock:
            if _active is None:
                _active = _resolve(None)
    return _active


def backend_name() -> str:
    """Name of the active backend (``numpy`` or ``cext``)."""
    return get_backend().name


def set_backend(name: Optional[str]) -> KernelBackend:
    """Force a backend by name (``None`` re-resolves from the environment)."""
    global _active
    with _lock:
        _active = _resolve(name) if name is not None else None
    return get_backend()


@contextlib.contextmanager
def use_backend(name: str):
    """Context manager: run a block under a specific backend."""
    previous = get_backend().name
    set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)


def warmup() -> str:
    """Pre-build tables / compile C for the active backend; returns its name.

    Called once per trial-engine worker so C compilation and table
    construction never land inside a measured trial.
    """
    backend = get_backend()
    backend.prewarm()
    return backend.name


def decode_many(
    llrs_list: Sequence[np.ndarray], terminated: bool = True
) -> List[np.ndarray]:
    """Decode a batch of codewords (mixed lengths allowed) in one call.

    Codewords are grouped by length and each group handed to the active
    backend's batch kernel, amortizing dispatch (the NumPy backend runs
    the whole group through one batched blocked-ACS recursion).  Result order matches input
    order; a looped ``viterbi_decode`` is bit-for-bit identical.
    """
    backend = get_backend()
    arrays = [np.asarray(llrs, dtype=np.float64) for llrs in llrs_list]
    for arr in arrays:
        if arr.ndim != 1 or arr.size % 2 != 0:
            raise ValueError("each codeword must be a flat, even-length LLR array")
    out: List[Optional[np.ndarray]] = [None] * len(arrays)
    groups: Dict[int, List[int]] = {}
    for i, arr in enumerate(arrays):
        groups.setdefault(arr.size, []).append(i)
    for size, indices in groups.items():
        if size == 0:
            for i in indices:
                out[i] = np.zeros(0, dtype=np.uint8)
            continue
        stacked = np.stack([arrays[i] for i in indices])
        decoded = backend.viterbi_decode_batch(stacked, terminated)
        for row, i in enumerate(indices):
            out[i] = decoded[row]
    return out  # type: ignore[return-value]


def deinterleave_rx(
    values: np.ndarray,
    n_cbps: int,
    n_bpsc: int,
    code_rate,
    fill: float = 0.0,
) -> np.ndarray:
    """Composed per-symbol deinterleave + depuncture (shared by both backends).

    ``values`` is ``(..., n_symbols * n_cbps)`` received metrics (any
    leading batch shape); the result is ``(..., n_symbols * 2 * n_dbps)``
    with ``fill`` at every punctured position.  Pure element moves —
    bit-for-bit identical batched or row by row.
    """
    return deinterleave_rx_numpy(values, n_cbps, n_bpsc, code_rate, fill)
