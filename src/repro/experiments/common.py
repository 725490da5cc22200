"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes a ``run(config, ..., workers=None)``
returning a dataclass of plain arrays, a ``print_result`` that renders
the same rows/series the paper's figure reports, and a ``claims`` that
judges the figure's shape claims on that same result (one
:class:`Claim` per claim, built with :func:`check`/:func:`check_all`).
Each ``run`` defaults to the paper's packet/trial budget; callers that
need a small run (tests) pass the size explicitly.

Trial execution goes through :mod:`repro.engine`: each module declares a
module-level trial function plus a reduction, and ``workers``
(``--workers`` / ``REPRO_WORKERS``) selects serial or process-pool
execution with bit-identical results.  :func:`init_phy_worker` is the
engine ``init`` hook that pre-builds one ``Transmitter``/``Receiver``
pair per worker process; :func:`send_probe_packets`, the one packet
probe of every open-loop harness, reuses that pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.channel import IndoorChannel
from repro.cos.link import CosReceiver
from repro.engine.worker import worker_state
from repro.phy import Receiver, Transmitter, build_mpdu
from repro.phy.params import PhyRate

__all__ = [
    "Claim",
    "check",
    "check_all",
    "ExperimentConfig",
    "print_table",
    "send_probe_packets",
    "init_phy_worker",
    "phy_pair",
    "DEFAULT_PAYLOAD",
]

DEFAULT_PAYLOAD = bytes(range(256)) * 2  # 512 B of known, non-trivial payload


@dataclass
class ExperimentConfig:
    """Common knobs for the figure harnesses."""

    seed: int = 7
    position: str = "A"
    payload: bytes = DEFAULT_PAYLOAD

    def channel(self, snr_db: float, *, seed_offset: int = 0, **kwargs) -> IndoorChannel:
        return IndoorChannel.position(
            self.position, snr_db=snr_db, seed=self.seed + seed_offset, **kwargs
        )


def print_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> None:
    """Render a plain-text table (the textual equivalent of a figure)."""
    rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    if title:
        print(f"\n== {title} ==")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ---------------------------------------------------------------------------
# Shape claims
# ---------------------------------------------------------------------------


class Claim(NamedTuple):
    """One shape claim judged on a harness result.

    ``measured`` is the value the verdict was read from (for a claim over
    many cases, the case nearest to failing, or failing worst) and
    ``bound`` what it was held to, both as printed.
    """

    name: str
    holds: bool
    measured: str
    bound: str


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _margin(op: str, value: float, bound: float) -> float:
    """How far ``value`` sits on the passing side of ``bound`` (< 0: fails)."""
    if op in (">", ">="):
        margin = value - bound
    elif op in ("<", "<="):
        margin = bound - value
    else:
        margin = -abs(value - bound)
    return -math.inf if math.isnan(margin) else margin


def check(name: str, value: float, op: str, bound: float, at: str = "") -> Claim:
    """The claim ``value <op> bound`` (a NaN value fails every bound);
    ``at`` names where ``value`` was measured."""
    measured = f"{float(value):.4g}" + (f" at {at}" if at else "")
    return Claim(name, bool(_OPS[op](value, bound)), measured,
                 f"{op} {float(bound):.4g}")


def check_all(name: str, op: str,
              cases: Iterable[Tuple[str, float, float]]) -> Claim:
    """The claim ``value <op> bound`` for every ``(at, value, bound)`` case,
    reported at its worst case; it holds vacuously when there is none."""
    cases = list(cases)
    if not cases:
        return Claim(name, True, "no cases", op)
    at, value, bound = min(cases, key=lambda case: _margin(op, case[1], case[2]))
    claim = check(name, value, op, bound, at)
    return claim._replace(holds=all(_OPS[op](v, b) for _, v, b in cases))


# ---------------------------------------------------------------------------
# Per-worker PHY reuse
# ---------------------------------------------------------------------------

_PHY_PAIR_KEY = "experiments.phy_pair"


def phy_pair() -> Tuple[Transmitter, Receiver]:
    """The process-local ``(Transmitter, Receiver)`` pair, built lazily.

    Both objects are stateless across packets (the scrambler state is a
    constructor constant), so sharing one pair per process is bit-exact
    with constructing them per call — it just stops re-paying the
    construction cost once per probe batch.
    """
    pair = worker_state().get(_PHY_PAIR_KEY)
    if pair is None:
        pair = (Transmitter(), Receiver())
        worker_state()[_PHY_PAIR_KEY] = pair
    return pair


def init_phy_worker() -> None:
    """Engine ``init`` hook: pre-build the PHY pair in each worker.

    Also pre-warms the compute-kernel backend so table builds / C
    compilation never land inside a measured trial (the process-pool
    initializer does this too; calling again is an idempotent no-op —
    this covers the serial path).
    """
    from repro import kernels

    kernels.warmup()
    phy_pair()


def send_probe_packets(
    channel: IndoorChannel,
    rate: PhyRate,
    n_packets: int,
    payload: bytes = DEFAULT_PAYLOAD,
    gap_s: float = 1e-3,
    *,
    silence: Optional[Callable] = None,
    erasures: str = "none",
) -> List:
    """Send ``n_packets`` packets at a fixed rate through ``channel``, then
    receive them as one batch: ``[(tx_frame, rx_result), ...]``.

    Each packet carries the mask ``silence(channel)`` builds from the
    channel it is sent through (silence-free without ``silence``); the
    channel then evolves ``gap_s``.  ``erasures``: ``"none"``, ``"true"``
    (the sent silence masks) or ``"detector"`` (``CosReceiver``'s energy
    detector; results are then ``CosRxResult``).
    """
    if n_packets < 1:
        raise ValueError(f"n_packets must be >= 1, got {n_packets}")
    if erasures not in ("none", "true", "detector"):
        raise ValueError(f"unknown erasures {erasures!r}: none|true|detector")
    tx, rx = phy_pair()
    psdu = build_mpdu(payload)
    frames, waves = [], []
    for _ in range(n_packets):
        mask = silence(channel) if silence is not None else None
        frame = tx.transmit(psdu, rate, silence_mask=mask)
        frames.append(frame)
        waves.append(channel.transmit(frame.waveform))
        channel.evolve(gap_s)
    # All channel randomness is consumed during the TX loop above (the
    # receiver never touches the channel), so receiving afterwards is
    # bit-exact with receiving each packet as it is sent — and the probes
    # go through one batch of FFTs/demaps/Viterbi calls.
    if erasures == "detector":
        results = CosReceiver(phy_receiver=rx).receive_many(waves)
    else:
        masks = [f.silence_mask for f in frames] if erasures == "true" else None
        results = rx.receive_many(waves, masks)
    return list(zip(frames, results))
