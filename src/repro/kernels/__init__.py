"""``repro.kernels`` — dispatchable compute kernels for the PHY/CoS hot paths.

The simulator's per-packet cost is dominated by a handful of tight inner
loops: the Viterbi add-compare-select recursion, constellation (de)mapping,
the data scrambler, and silence energy detection.  This package collects
those loops into *kernels* behind a small dispatch layer so they can be
served by different backends without the callers caring:

``cext``
    The C backend, and the one ``auto`` picks whenever it is registered:
    the scalar ACS embedded as C source and compiled on demand with
    whatever system compiler exists (``cc``/``gcc``/``clang``), cached
    per machine, loaded via ctypes.  Registered only when a compiler is
    on PATH; a failed build falls back to ``numpy`` with a one-time
    warning.
``numpy``
    The always-available pure-NumPy backend.  Its Viterbi uses a
    *blocked* ACS: ``DEFAULT_BLOCK = 2`` trellis steps are fused into one
    super-step whose branch metrics are gathered from a fixed-order table
    of summed pair metrics, halving the Python-level loop count.  The same
    recursion runs a whole ``(B, 2n)`` batch at once, which makes it the
    batched kernel.

The pure-Python scalar oracle in :mod:`repro.kernels.oracle` is the one
semantics anchor: both backends must be bit-exact against it (see
:mod:`repro.kernels.dispatch` for the exact-arithmetic contract).

Backend selection: ``REPRO_KERNEL_BACKEND`` (``auto``/``numpy``/``cext``)
or :func:`set_backend`; ``auto`` prefers cext, then numpy.
:func:`warmup` pre-builds tables and triggers C compilation — the trial
engine calls it once per worker process.

Both backends implement the same tie-breaking rule (prefer the lower branch
index, later steps dominating), so on *exact-arithmetic* inputs — integer
-valued LLRs, hard decisions, erasures — their decoded bits are provably
identical, ties included.  ``tests/test_kernels.py`` asserts this against
the oracle, and CRC-verified golden packets cover all eight 802.11a rates.
"""

from repro.kernels.dispatch import (
    KernelBackend,
    available_backends,
    backend_name,
    decode_many,
    deinterleave_rx,
    get_backend,
    set_backend,
    use_backend,
    warmup,
)
from repro.kernels.scramble import prbs_sequence, prbs_state_table
from repro.kernels.energy import silence_energies, silence_mask

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
    "prbs_sequence",
    "prbs_state_table",
    "silence_energies",
    "silence_mask",
]
