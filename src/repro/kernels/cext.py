"""Optional C Viterbi backend, compiled on demand with the system compiler.

The add-compare-select recursion is tiny (a few dozen lines of C), and an
``-O3`` build of it runs the whole 64-state trellis far faster than any
NumPy formulation — NumPy's per-call dispatch overhead is the floor
there, not the arithmetic.  The kernel walks the trellis in its 32
butterflies, branch-free, so the compiler vectorises each step; the
function is cloned per ISA (AVX-512, AVX2, baseline) where the
toolchain supports ``target_clones``, and the loader picks the clone for
the running CPU.  This module embeds that C source, builds it into a
shared library the first time it is needed (``CC``, else ``cc``/``gcc``/
``clang``, whichever exists), caches the artifact in the per-user temp
directory under a name hashing the compiler, its flags and the source,
and loads it with :mod:`ctypes`.  No toolchain, no build step, no new
dependency: machines without a C compiler simply don't register the
backend, and a failed build falls back to the blocked NumPy kernel with
a one-time warning.

Semantics are identical to every other backend (same pair-metric signs,
same ``c1 > c0`` tie rule, same lowest-state preference for the
unterminated start) — the equivalence suite decodes through this backend
against the scalar oracle like all the others.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.trellis import N_STATES, shared_trellis

__all__ = ["compiler_available", "ensure_built", "decode_c"]

log = logging.getLogger("repro.kernels")

_SOURCE = r"""
#include <stdint.h>

#define N_STATES 64
#define HALF (N_STATES / 2)
#define NEG_INF (-1e18)
#define NORM_INTERVAL 256

/* One clone per ISA, picked by the loader on the running CPU, where the
 * toolchain can build them (GNU ifunc on x86-64 Linux); elsewhere the same
 * body is built once for the baseline ISA. */
#if defined(__has_attribute)
#if __has_attribute(target_clones) && defined(__x86_64__) && defined(__linux__)
#define ACS_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef ACS_CLONES
#define ACS_CLONES
#endif

/* Butterfly ACS Viterbi for the 802.11a K=7 rate-1/2 code.
 *
 * llrs:      2*n_steps soft values (A0 B0 A1 B1 ...), positive => bit 0
 * sign_a/b:  32 doubles each, +-1: butterfly s's branch metric is
 *            bm = sign_a[s]*la + sign_b[s]*lb
 * decisions: n_steps x 64 uint8 scratch (caller-allocated)
 * bits_out:  n_steps uint8 decoded info bits
 *
 * Next states s and s+32 share the predecessors 2s and 2s+1, and both
 * generators tap the newest and the shifted-out bit, so the four
 * transitions of butterfly s carry +bm, -bm, -bm, +bm.  Tie rule: branch 1
 * (predecessor 2s+1) wins only on strict c1 > c0; the unterminated start
 * state is the lowest-index maximiser.  Metrics are re-centred about their
 * peak every NORM_INTERVAL steps (a float-range guard only).
 */
ACS_CLONES
void viterbi_decode(
    const double *llrs,
    int64_t n_steps,
    const double *sign_a,
    const double *sign_b,
    int terminated,
    uint8_t *decisions,
    uint8_t *bits_out)
{
    double buf[2][N_STATES];
    double *metric = buf[0];
    double *next = buf[1];
    int s;
    int64_t t;

    for (s = 0; s < N_STATES; s++) metric[s] = NEG_INF;
    metric[0] = 0.0;

    for (t = 0; t < n_steps; t++) {
        const double la = llrs[2 * t];
        const double lb = llrs[2 * t + 1];
        uint8_t *row = decisions + t * N_STATES;
        for (s = 0; s < HALF; s++) {
            const double m0 = metric[2 * s];
            const double m1 = metric[2 * s + 1];
            const double bm = sign_a[s] * la + sign_b[s] * lb;
            const double c00 = m0 + bm, c01 = m1 - bm; /* into s */
            const double c10 = m0 - bm, c11 = m1 + bm; /* into s + 32 */
            const int d0 = c01 > c00;
            const int d1 = c11 > c10;
            next[s] = d0 ? c01 : c00;
            next[s + HALF] = d1 ? c11 : c10;
            row[s] = (uint8_t)d0;
            row[s + HALF] = (uint8_t)d1;
        }
        if ((t & (NORM_INTERVAL - 1)) == NORM_INTERVAL - 1) {
            double peak = next[0];
            for (s = 1; s < N_STATES; s++)
                if (next[s] > peak) peak = next[s];
            for (s = 0; s < N_STATES; s++) metric[s] = next[s] - peak;
        } else {
            double *swap = metric;
            metric = next;
            next = swap;
        }
    }

    int state = 0;
    if (!terminated) {
        double best = NEG_INF;
        for (s = 0; s < N_STATES; s++)
            if (metric[s] > best) { best = metric[s]; state = s; }
    }
    /* A state's MSB is the bit that entered it; its predecessor along
     * branch d shifts d in at the bottom. */
    for (t = n_steps - 1; t >= 0; t--) {
        bits_out[t] = (uint8_t)(state >> 5);
        state = ((state << 1) | decisions[t * N_STATES + state]) & (N_STATES - 1);
    }
}
"""

_COMPILERS = ("cc", "gcc", "clang")

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_build_failed = False
_warned_fallback = False


def _find_compiler() -> Optional[str]:
    candidates: List[str] = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(_COMPILERS)
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    return None


def compiler_available() -> bool:
    """Cheap registration check: is any C compiler on PATH?"""
    return _find_compiler() is not None


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CEXT_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )
    os.makedirs(root, mode=0o700, exist_ok=True)
    return root


#: Compiler arguments other than the file names.  No ``-march=native``:
#: the ISA is chosen at load time by the dispatch in the source, so a
#: cached artefact stays valid on any host; ``-ffp-contract=off`` keeps
#: the branch metric's multiply and add unfused, as written.
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _artifact_stem(compiler: str, flags: Sequence[str]) -> str:
    """Cache name of the library ``compiler`` builds from ``_SOURCE`` with
    ``flags``: a digest of all three, so that a new compiler (``CC``, or
    the one ``cc`` resolves to) or new flags never reuse an old build."""
    key = "\0".join([os.path.realpath(compiler), *flags, _SOURCE])
    return "viterbi_" + hashlib.sha256(key.encode()).hexdigest()[:16]


def _build_library() -> Optional[ctypes.CDLL]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    cache = _cache_dir()
    stem = os.path.join(cache, _artifact_stem(compiler, _FLAGS))
    so_path = f"{stem}.so"
    if not os.path.exists(so_path):
        src_path = f"{stem}.c"
        tmp_path = f"{so_path}.tmp{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        proc = subprocess.run(
            [compiler, *_FLAGS, "-o", tmp_path, src_path],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            log.warning("cext kernel build failed:\n%s", proc.stderr.strip())
            return None
        os.replace(tmp_path, so_path)  # atomic: safe under concurrent builds
    lib = ctypes.CDLL(so_path)
    ptr = ctypes.c_void_p
    lib.viterbi_decode.argtypes = [
        ptr, ctypes.c_int64, ptr, ptr, ctypes.c_int, ptr, ptr,
    ]
    lib.viterbi_decode.restype = None
    return lib


def ensure_built() -> bool:
    """Build/load the library once; False when unavailable or broken."""
    global _lib, _build_failed
    if _lib is not None:
        return True
    if _build_failed:
        return False
    with _lock:
        if _lib is None and not _build_failed:
            try:
                _lib = _build_library()
            except Exception:  # pragma: no cover — defensive
                log.warning("cext kernel load failed", exc_info=True)
                _lib = None
            if _lib is None:
                _build_failed = True
    return _lib is not None


def _butterfly_signs() -> Tuple[np.ndarray, np.ndarray]:
    """``(sign_a, sign_b)``: the ±1 pair-metric signs of each butterfly's
    ``2s -> s`` branch, after checking that the shared trellis has the
    butterfly layout the kernel hard-codes."""
    trellis = shared_trellis()
    ns = np.arange(N_STATES)
    half = N_STATES // 2
    pair = trellis.branch_pair
    if not (
        np.array_equal(trellis.prev_state[:, 0], (2 * ns) % N_STATES)
        and np.array_equal(trellis.prev_state[:, 1], (2 * ns) % N_STATES + 1)
        and np.array_equal(trellis.input_bit, ns >> 5)
        and np.array_equal(pair[:, 1], 3 - pair[:, 0])
        and np.array_equal(pair[half:, 0], 3 - pair[:half, 0])
    ):
        raise RuntimeError("trellis does not have the butterfly layout")
    first = pair[:half, 0]
    sign_a = np.ascontiguousarray(1.0 - 2.0 * (first >> 1), dtype=np.float64)
    sign_b = np.ascontiguousarray(1.0 - 2.0 * (first & 1), dtype=np.float64)
    return sign_a, sign_b


_SIGN_A, _SIGN_B = _butterfly_signs()
_SIGN_PTRS = (_SIGN_A.ctypes.data, _SIGN_B.ctypes.data)


def decode_c(llrs: np.ndarray, terminated: bool = True) -> np.ndarray:
    """Decode one rate-1/2 LLR stream through the compiled kernel.

    Falls back to the blocked NumPy kernel (with a one-time warning) when
    the library cannot be built — callers never need to care.  The kernel
    takes raw pointers: this is the one place that makes the input a
    C-contiguous float64 array and allocates the outputs.
    """
    global _warned_fallback
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    if llrs.size % 2 != 0:
        raise ValueError("LLR stream must contain whole (A, B) pairs")
    n_steps = llrs.size // 2
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    if not ensure_built():
        if not _warned_fallback:
            log.warning(
                "cext kernel unavailable; falling back to the NumPy backend"
            )
            _warned_fallback = True
        from repro.kernels.viterbi_numpy import decode_blocked

        return decode_blocked(llrs, terminated)
    decisions = np.empty(n_steps * N_STATES, dtype=np.uint8)
    bits = np.empty(n_steps, dtype=np.uint8)
    _lib.viterbi_decode(
        llrs.ctypes.data, n_steps, *_SIGN_PTRS,
        int(terminated), decisions.ctypes.data, bits.ctypes.data,
    )
    return bits
