"""Golden decodes of real-valued LLR streams, under every Viterbi backend.

The oracle battery in ``tests/test_kernels.py`` feeds integer LLRs only,
so every path metric is exact there and the order in which a kernel adds
its floats cannot show.  This file pins the kernels on *real* LLRs:
``tests/data/viterbi_golden.json`` holds, per backend, a sha256 of the
decoded bits of 36 fixed streams — three kinds at six lengths (24 steps,
both sides of the 256-step renormalisation, 1,100 steps and one 512-B
packet's 4,350), terminated and unterminated, each with runs of zeroed
erasures:

* ``codeword`` — a noisy, CSI-weighted codeword;
* ``noise`` — pure noise, where many paths run close;
* ``quantised`` — a noisier codeword whose LLRs sit on a 0.3 grid, as a
  fixed-point soft demapper would give them.  Sums of such values tie in exact
  arithmetic and round apart in floating point, so which path wins
  depends on the order the kernel adds in: a rewrite that reorders a
  float addition, or moves the renormalisation, flips some of these
  decodes.  The two backends add in different orders (the ``numpy``
  kernel fuses two steps per addition), so their digests differ here.

On the continuous kinds both backends decode every stream to the same
bits.  The file was recorded at commit 28b5bfc8; to regenerate it, check
out that commit and run this file as a script.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import cext, use_backend
from repro.phy.convcode import conv_encode

GOLDEN_PATH = Path(__file__).parent / "data" / "viterbi_golden.json"
SEED = 2017
KINDS = ("codeword", "noise", "quantised")
#: Grid of the quantised kind's LLRs (not a power of two: sums round).
QUANTUM = 0.3
LENGTHS = (24, 255, 256, 257, 1100, 4350)
TAIL = 6

needs_cc = pytest.mark.skipif(
    not cext.compiler_available(), reason="no C compiler on PATH"
)
BACKENDS = ["numpy", pytest.param("cext", marks=needs_cc)]


def _stream(kind: str, n_steps: int, terminated: bool, index: int) -> np.ndarray:
    """LLRs of one rate-1/2 stream of ``n_steps`` steps (positive favours 0)."""
    rng = np.random.default_rng([SEED, index])
    if terminated:
        info = np.concatenate([
            rng.integers(0, 2, n_steps - TAIL, dtype=np.uint8),
            np.zeros(TAIL, dtype=np.uint8),
        ])
    else:
        info = rng.integers(0, 2, n_steps, dtype=np.uint8)
    n = 2 * n_steps
    if kind == "noise":
        llrs = rng.normal(0.0, 4.0, n)
    else:
        sent = 1.0 - 2.0 * conv_encode(info).astype(np.float64)
        csi = rng.uniform(0.2, 3.0, n)
        if kind == "codeword":
            llrs = csi * (sent + rng.normal(0.0, 0.5, n))
        else:  # quantised: nearer the decoding threshold, on a coarse grid
            llrs = csi * (sent + rng.normal(0.0, 0.8, n))
            llrs = np.round(llrs / QUANTUM) * QUANTUM
    for _ in range(max(1, n // 400)):
        start = int(rng.integers(0, n))
        llrs[start : start + int(rng.integers(1, 25))] = 0.0
    return llrs


def _cases():
    index = 0
    for kind in KINDS:
        for n_steps in LENGTHS:
            for terminated in (True, False):
                name = f"{kind}-{n_steps}-{'term' if terminated else 'open'}"
                yield name, kind, n_steps, terminated, index
                index += 1


def _digest(bits: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()


def _decode_all(backend: str):
    """``{stream name: digest of its decoded bits}`` under ``backend``."""
    out = {}
    with use_backend(backend) as be:
        for name, kind, n_steps, terminated, index in _cases():
            bits = be.viterbi_decode(_stream(kind, n_steps, terminated, index),
                                     terminated)
            assert bits.shape == (n_steps,), name
            out[name] = _digest(bits)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert golden["seed"] == SEED
    names = [name for name, *_ in _cases()]
    assert len(names) == 36
    assert sorted(golden["streams"]) == sorted(names)
    for name, kind, n_steps, _, _ in _cases():
        row = golden["streams"][name]
        assert row["n_steps"] == n_steps
        if kind != "quantised":
            assert row["cext"] == row["numpy"], name
    # The quantised kind separates the backends' addition orders.
    assert any(row["cext"] != row["numpy"] for row in golden["streams"].values())


@pytest.mark.parametrize("backend", BACKENDS)
def test_decodes_match_golden(golden, backend):
    got = _decode_all(backend)
    for name, want in golden["streams"].items():
        assert got[name] == want[backend], (backend, name)


if __name__ == "__main__":
    by_backend = {backend: _decode_all(backend) for backend in ("cext", "numpy")}
    streams = {
        name: {"n_steps": n_steps,
               **{backend: by_backend[backend][name] for backend in by_backend}}
        for name, _, n_steps, _, _ in _cases()
    }
    GOLDEN_PATH.write_text(
        json.dumps({"commit": "28b5bfc8", "seed": SEED, "streams": streams},
                   indent=1, sort_keys=True) + "\n"
    )
