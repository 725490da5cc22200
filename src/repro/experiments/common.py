"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes a ``run(config, ..., workers=None)``
returning a dataclass of plain arrays plus a ``print_result`` that
renders the same rows/series the paper's figure reports.  Benchmarks
call ``run`` with the quick defaults; set ``REPRO_FULL=1`` for
paper-scale packet counts (slower, smoother curves, same shapes).

Trial execution goes through :mod:`repro.engine`: each module declares a
module-level trial function plus a reduction, and ``workers``
(``--workers`` / ``REPRO_WORKERS``) selects serial or process-pool
execution with bit-identical results.  :func:`init_phy_worker` is the
engine ``init`` hook that pre-builds one ``Transmitter``/``Receiver``
pair per worker process; :func:`send_probe_packets` reuses that pair
instead of reconstructing the PHY per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.channel import IndoorChannel
from repro.engine.worker import worker_state
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.params import PhyRate
from repro.utils.env import env_bool

__all__ = [
    "full_mode",
    "scaled",
    "ExperimentConfig",
    "print_table",
    "send_probe_packets",
    "init_phy_worker",
    "phy_pair",
    "DEFAULT_PAYLOAD",
]

DEFAULT_PAYLOAD = bytes(range(256)) * 2  # 512 B of known, non-trivial payload


def full_mode() -> bool:
    """True when ``REPRO_FULL=1`` requests paper-scale runs."""
    return env_bool("REPRO_FULL", default=False)


def scaled(quick: int, full: int) -> int:
    """Pick a packet/trial budget according to the mode."""
    return full if full_mode() else quick


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

    Also pre-warms the compute-kernel backend so table builds / JIT
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
) -> List:
    """Send ``n_packets`` plain (silence-free) packets, returning RxResults
    paired with their TxFrames: ``[(tx_frame, rx_result), ...]``.

    Uses the per-worker PHY pair from :func:`phy_pair` — call sites no
    longer construct a fresh ``Transmitter``/``Receiver`` per batch.
    """
    tx, rx = phy_pair()
    psdu = build_mpdu(payload)
    frames = []
    waves = []
    for _ in range(n_packets):
        frame = tx.transmit(psdu, rate)
        frames.append(frame)
        waves.append(channel.transmit(frame.waveform))
        channel.evolve(gap_s)
    # All channel randomness is consumed during the TX loop above (the
    # receiver never touches the channel), so receiving afterwards is
    # bit-exact with receiving each packet as it is sent — and the probes
    # go through ``receive_many`` as one batch of FFTs/demaps/Viterbi calls.
    return list(zip(frames, rx.receive_many(waves)))
