"""PRR surrogate tables: the real PHY, measured once, replayed for free.

``repro.net`` decides frame fates from SINR-keyed curves.  Its default
:class:`~repro.net.sinr.SigmoidErrorModel` is an *analytic* stand-in;
running the full OFDM/Viterbi stack per frame would be faithful but far
too slow for hundreds of nodes.  This module closes the gap: it sweeps
the **real** PHY over an SINR × rate grid (one packet probe per point,
via :func:`repro.engine.run_sweep`), fits a monotone PRR curve per
rate, and serialises the result as a versioned JSON table keyed by a
hash of the measurement spec.  The network layer
(:class:`repro.net.sinr.SinrModel`, ``cos_fidelity="surrogate"``) then
replays measured-PHY behaviour at table-lookup cost.

Two determinism anchors make the surrogate testable against the live
PHY:

* PRR points are measured by :func:`measure_prr_point`, a pure function
  of the spec fields — re-measuring any grid node reproduces the stored
  raw value bit-for-bit.
* The CoS accuracy curve is sampled at integer dB by
  :func:`measure_cos_point`, also pure in its arguments — re-running it
  at the spec's CoS position, seed and packet count reproduces any
  stored grid value to the last bit.

Build via :func:`build_surrogate_table` or ``repro net tables build``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.phy.params import RATE_TABLE

__all__ = [
    "TABLE_VERSION",
    "SurrogateSpec",
    "SurrogateTable",
    "monotone_fit",
    "measure_prr_point",
    "measure_cos_point",
    "build_surrogate_table",
    "default_table_path",
    "load_default_table",
]

TABLE_VERSION = 1

#: The committed default table (built by ``repro net tables build``).
_DEFAULT_TABLE = Path(__file__).resolve().parent / "tables" / "surrogate_default.json"

#: Seconds of channel evolution between PRR probe packets.
_PRR_GAP_S = 1e-3


@dataclass(frozen=True)
class SurrogateSpec:
    """Everything that determines a surrogate measurement, and nothing else.

    The spec is hashed (canonical JSON, sha256) into the table key; two
    tables with equal hashes were measured identically.  The
    ``cos_position`` / ``cos_seed`` / ``cos_n_packets`` fields are the
    :func:`measure_cos_point` arguments of the CoS accuracy curve.
    """

    position: str = "A"
    channel_seeds: Tuple[int, ...] = (0, 1, 2, 3)
    n_packets: int = 50  # per (rate, SINR, seed) PRR probe
    payload_octets: int = 256
    sinr_min_db: float = -2.0
    sinr_max_db: float = 30.0
    sinr_step_db: float = 2.0
    rates_mbps: Tuple[int, ...] = field(
        default_factory=lambda: tuple(sorted(RATE_TABLE))
    )
    cos_position: str = "A"
    cos_seed: int = 0
    cos_n_packets: int = 12

    def sinr_grid_db(self) -> List[float]:
        n = int(round((self.sinr_max_db - self.sinr_min_db) / self.sinr_step_db))
        return [self.sinr_min_db + i * self.sinr_step_db for i in range(n + 1)]

    def cos_grid_db(self) -> List[int]:
        """Integer-dB grid of the CoS accuracy curve."""
        return list(
            range(int(round(self.sinr_min_db)), int(round(self.sinr_max_db)) + 1)
        )

    def canonical(self) -> Dict:
        return asdict(self)

    def spec_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def monotone_fit(values: np.ndarray) -> np.ndarray:
    """Isotonic (non-decreasing) least-squares fit via pool-adjacent-violators.

    PRR is physically non-decreasing in SINR; Monte-Carlo noise is not.
    PAVA pools adjacent violating points to their mean, which both
    restores monotonicity and keeps every fitted value inside the spread
    of the raw points it pools — the property behind the build-time
    ``max |fit - raw|`` check.
    """
    y = np.asarray(values, dtype=np.float64)
    # Blocks of (mean, weight), merged while out of order.
    means: List[float] = []
    weights: List[float] = []
    for value in y:
        means.append(float(value))
        weights.append(1.0)
        while len(means) > 1 and means[-2] > means[-1]:
            w = weights[-2] + weights[-1]
            m = (means[-2] * weights[-2] + means[-1] * weights[-1]) / w
            means[-2:] = [m]
            weights[-2:] = [w]
    out = np.empty_like(y)
    i = 0
    for m, w in zip(means, weights):
        out[i : i + int(w)] = m
        i += int(w)
    return out


# ---------------------------------------------------------------------------
# Measurement primitives (pure in their arguments — re-runnable anywhere)
# ---------------------------------------------------------------------------


def measure_prr_point(
    position: str,
    snr_db: float,
    rate_mbps: int,
    n_packets: int,
    payload_octets: int,
    channel_seed: int,
) -> float:
    """PRR of the real PHY at one (SINR, rate, seed) point.

    One open-loop :func:`repro.experiments.common.send_probe_packets`
    call: ``n_packets`` silence-free packets at the fixed rate, the
    channel evolving :data:`_PRR_GAP_S` between them, received as one
    batch through the CoS receive chain (``erasures="detector"``: energy
    detection, its masks as erasures).  Deterministic in its arguments:
    the channel draws from a fixed seed, and the batched receive is
    bit-for-bit equal to the looped one.
    """
    from repro.channel import IndoorChannel
    from repro.experiments.common import send_probe_packets

    channel = IndoorChannel.position(
        position, snr_db=float(snr_db), seed=int(channel_seed)
    )
    results = send_probe_packets(
        channel, RATE_TABLE[int(rate_mbps)], int(n_packets),
        payload=bytes(int(payload_octets)), gap_s=_PRR_GAP_S,
        erasures="detector",
    )
    return float(np.mean([r.data_ok for _, r in results]))


def measure_cos_point(
    position: str, snr_db: int, seed: int, n_packets: int
) -> float:
    """Closed-loop CoS message accuracy at one integer-dB point.

    One ``CosLink`` session of ``n_packets`` exchanges; the surrogate's
    CoS curve stores this value per :meth:`SurrogateSpec.cos_grid_db`
    node.
    """
    from repro.channel import IndoorChannel
    from repro.cos import CosLink

    channel = IndoorChannel.position(
        position, snr_db=float(int(snr_db)), seed=int(seed)
    )
    stats = CosLink(channel=channel).run(n_packets=int(n_packets), payload=bytes(256))
    return float(stats.message_accuracy)


def _prr_trial(spec) -> float:
    """Engine trial: one PRR grid point (module-level: picklable)."""
    return measure_prr_point(
        spec["position"],
        spec["snr_db"],
        spec["rate_mbps"],
        spec["n_packets"],
        spec["payload_octets"],
        spec["channel_seed"],
    )


def _cos_trial(spec) -> float:
    """Engine trial: one CoS accuracy grid point (module-level: picklable)."""
    return measure_cos_point(
        spec["position"], spec["snr_db"], spec["seed"], spec["n_packets"]
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass
class SurrogateTable:
    """A measured, monotone-fitted PRR/CoS surrogate of the real PHY."""

    spec: SurrogateSpec
    spec_hash: str
    sinr_grid_db: np.ndarray
    prr_raw: Dict[int, np.ndarray]  # rate Mbps -> raw measured PRR
    prr_fit: Dict[int, np.ndarray]  # rate Mbps -> isotonic fit
    cos_grid_db: np.ndarray  # integer dB
    cos_accuracy: np.ndarray
    version: int = TABLE_VERSION

    def prr(self, sinr_db: float, rate_mbps: int) -> float:
        """Monotone-fitted PRR, linearly interpolated, clamped at the ends."""
        try:
            curve = self.prr_fit[int(rate_mbps)]
        except KeyError:
            raise KeyError(
                f"no surrogate curve for {rate_mbps} Mbps; "
                f"known: {sorted(self.prr_fit)}"
            ) from None
        return float(np.interp(float(sinr_db), self.sinr_grid_db, curve))

    def cos_delivery_prob(self, sinr_db: float) -> float:
        """Per-message CoS accuracy at the carrier's SINR.

        Rounds to integer dB and clamps to the measured range, so inside
        the grid this *is* :func:`measure_cos_point`'s value at the
        spec's CoS fields.
        """
        key = int(round(float(sinr_db)))
        lo = int(self.cos_grid_db[0])
        hi = int(self.cos_grid_db[-1])
        key = min(max(key, lo), hi)
        return float(self.cos_accuracy[key - lo])

    def max_fit_error(self) -> float:
        """Largest |fit - raw| over every rate and grid node."""
        return max(
            float(np.max(np.abs(self.prr_fit[r] - self.prr_raw[r])))
            for r in self.prr_raw
        )

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "spec": self.spec.canonical(),
            "spec_hash": self.spec_hash,
            "sinr_grid_db": [float(v) for v in self.sinr_grid_db],
            "rates": {
                str(r): {
                    "prr_raw": [float(v) for v in self.prr_raw[r]],
                    "prr_fit": [float(v) for v in self.prr_fit[r]],
                }
                for r in sorted(self.prr_raw)
            },
            "cos_grid_db": [int(v) for v in self.cos_grid_db],
            "cos_accuracy": [float(v) for v in self.cos_accuracy],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SurrogateTable":
        version = int(data.get("version", -1))
        if version != TABLE_VERSION:
            raise ValueError(
                f"surrogate table version {version} unsupported "
                f"(expected {TABLE_VERSION}); rebuild with "
                "'repro net tables build'"
            )
        spec_dict = dict(data["spec"])
        for key in ("channel_seeds", "rates_mbps"):
            spec_dict[key] = tuple(spec_dict[key])
        spec = SurrogateSpec(**spec_dict)
        stored_hash = str(data["spec_hash"])
        if stored_hash != spec.spec_hash():
            raise ValueError(
                f"surrogate table hash mismatch: stored {stored_hash}, "
                f"spec hashes to {spec.spec_hash()} — file corrupt or "
                "hand-edited"
            )
        rates = {
            int(r): entry for r, entry in data["rates"].items()
        }
        table = cls(
            spec=spec,
            spec_hash=stored_hash,
            sinr_grid_db=np.asarray(data["sinr_grid_db"], dtype=np.float64),
            prr_raw={
                r: np.asarray(e["prr_raw"], dtype=np.float64)
                for r, e in rates.items()
            },
            prr_fit={
                r: np.asarray(e["prr_fit"], dtype=np.float64)
                for r, e in rates.items()
            },
            cos_grid_db=np.asarray(data["cos_grid_db"], dtype=np.intp),
            cos_accuracy=np.asarray(data["cos_accuracy"], dtype=np.float64),
            version=version,
        )
        table._check_data()
        return table

    def _check_data(self) -> None:
        """Reject data that does not fit the spec, naming the field (the
        hash covers only the spec; lookups would fail much later)."""
        spec, n_sinr = self.spec, len(self.sinr_grid_db)
        if self.sinr_grid_db.tolist() != spec.sinr_grid_db():
            raise ValueError("surrogate table 'sinr_grid_db' is not the spec's grid")
        if self.cos_grid_db.tolist() != spec.cos_grid_db():
            raise ValueError("surrogate table 'cos_grid_db' is not the spec's grid")
        if sorted(self.prr_raw) != sorted(spec.rates_mbps):
            raise ValueError(f"surrogate table 'rates' holds {sorted(self.prr_raw)} "
                             f"Mbps, the spec lists {sorted(spec.rates_mbps)}")
        curves = [("cos_accuracy", self.cos_accuracy, len(self.cos_grid_db))]
        for r in sorted(self.prr_raw):
            curves += [(f"rates.{r}.prr_raw", self.prr_raw[r], n_sinr),
                       (f"rates.{r}.prr_fit", self.prr_fit[r], n_sinr)]
        for name, values, n in curves:
            if values.shape != (n,):
                raise ValueError(f"surrogate table {name!r} has shape "
                                 f"{values.shape}, its grid has {n} nodes")
            if not np.all((values >= 0.0) & (values <= 1.0)):
                raise ValueError(f"surrogate table {name!r} holds a value "
                                 "that is not finite or not in [0, 1]")

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SurrogateTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build_surrogate_table(
    spec: Optional[SurrogateSpec] = None,
    *,
    workers: int = 0,
) -> SurrogateTable:
    """Sweep the real PHY over the spec's grid and fit the surrogate.

    PRR points run through :func:`repro.engine.run_sweep` (parallel-safe:
    every point is pure in its params), each one
    :func:`measure_prr_point` probe; seeds average into one raw curve per
    rate, which PAVA then makes monotone.  The CoS accuracy curve is
    :func:`measure_cos_point` per integer dB.
    """
    from repro.engine import run_sweep
    from repro.experiments.common import init_phy_worker

    spec = spec or SurrogateSpec()
    grid = spec.sinr_grid_db()

    params = [
        {
            "position": spec.position,
            "snr_db": snr,
            "rate_mbps": rate,
            "n_packets": spec.n_packets,
            "payload_octets": spec.payload_octets,
            "channel_seed": seed,
        }
        for rate in spec.rates_mbps
        for snr in grid
        for seed in spec.channel_seeds
    ]
    prrs = run_sweep(
        params, _prr_trial, seed=0, workers=workers,
        init=init_phy_worker, label="surrogate.prr",
    )
    prrs = np.asarray(prrs, dtype=np.float64).reshape(
        len(spec.rates_mbps), len(grid), len(spec.channel_seeds)
    )
    raw = {
        rate: prrs[i].mean(axis=1) for i, rate in enumerate(spec.rates_mbps)
    }
    fit = {rate: monotone_fit(curve) for rate, curve in raw.items()}

    cos_grid = spec.cos_grid_db()
    cos_params = [
        {
            "position": spec.cos_position,
            "snr_db": snr,
            "seed": spec.cos_seed,
            "n_packets": spec.cos_n_packets,
        }
        for snr in cos_grid
    ]
    cos_accuracy = run_sweep(
        cos_params, _cos_trial, seed=0, workers=workers,
        init=init_phy_worker, label="surrogate.cos",
    )

    return SurrogateTable(
        spec=spec,
        spec_hash=spec.spec_hash(),
        sinr_grid_db=np.asarray(grid, dtype=np.float64),
        prr_raw=raw,
        prr_fit=fit,
        cos_grid_db=np.asarray(cos_grid, dtype=np.intp),
        cos_accuracy=np.asarray(cos_accuracy, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Default-table resolution
# ---------------------------------------------------------------------------


def default_table_path() -> Path:
    """The committed table ``cos_fidelity="surrogate"`` loads."""
    return _DEFAULT_TABLE


def load_default_table() -> SurrogateTable:
    path = default_table_path()
    if not path.exists():
        raise FileNotFoundError(
            f"no surrogate table at {path}; build one with "
            "'repro net tables build'"
        )
    return SurrogateTable.load(path)

