"""PHY surrogate tables: the real PHY, measured once, replayed for free.

``repro.net`` decides frame fates and CoS message delivery from
SINR-keyed curves; running the full OFDM/Viterbi stack per frame would
be faithful but far too slow for hundreds of nodes.  This module sweeps
the **real** PHY over an SINR grid (one engine trial per point, via
:func:`repro.engine.run_sweep`), fits a monotone curve per question,
and serialises the result as a versioned JSON table keyed by a hash of
the measurement spec.  The network layer
(:class:`repro.net.sinr.ReceptionModel`, :class:`repro.net.control.ControlPlane`)
replays it at table-lookup cost through :func:`load_default_table`; it
is the only frame-fate and CoS-delivery model ``repro.net`` has.

Two determinism anchors make the surrogate testable against the live
PHY:

* PRR points are measured by :func:`measure_prr_point`, a pure function
  of the spec fields — re-measuring any grid node reproduces the stored
  raw value bit-for-bit.
* CoS points are measured by :func:`measure_cos_point`: closed-loop
  ``CosLink`` sessions at integer dB, one per channel seed, each counting
  the carriers that decoded with control aboard and the messages among
  them that decoded exactly.  The table stores those counts per dB, so
  a 0 on the curve reads as "0 of N carriers", and re-running the
  spec's seeds at one grid node reproduces its stored counts exactly.

Build via :func:`build_surrogate_table` or ``repro net tables build``.
"""

from __future__ import annotations

import functools
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
    "fit_cos_curve",
    "build_surrogate_table",
    "default_table_path",
    "load_default_table",
]

TABLE_VERSION = 3

#: The committed default table (built by ``repro net tables build``).
_DEFAULT_TABLE = Path(__file__).resolve().parent / "tables" / "surrogate_default.json"

#: Seconds of channel evolution between PRR probe packets.
_PRR_GAP_S = 1e-3


@dataclass(frozen=True)
class SurrogateSpec:
    """Everything that determines a surrogate measurement, and nothing else.

    The spec is hashed (canonical JSON, sha256) into the table key; two
    tables with equal hashes were measured identically.  The
    ``cos_position`` / ``cos_channel_seeds`` / ``cos_n_packets`` fields
    are the :func:`measure_cos_point` arguments of the CoS delivery
    curve: one closed-loop session per (integer dB, channel seed).
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
    cos_channel_seeds: Tuple[int, ...] = (0, 1, 2, 3)
    cos_n_packets: int = 100  # per (integer dB, seed) closed-loop session

    def sinr_grid_db(self) -> List[float]:
        n = int(round((self.sinr_max_db - self.sinr_min_db) / self.sinr_step_db))
        return [self.sinr_min_db + i * self.sinr_step_db for i in range(n + 1)]

    def cos_grid_db(self) -> List[int]:
        """Integer-dB grid of the CoS delivery curve."""
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
    position: str, snr_db: int, channel_seed: int, n_packets: int
) -> Tuple[int, int]:
    """Closed-loop CoS delivery counts at one (integer dB, seed) point.

    One ``CosLink`` session of ``n_packets`` exchanges.  Returns
    ``(delivered, carried)``: ``carried`` counts the packets whose data
    decoded with a control message aboard, ``delivered`` those among
    them whose message decoded exactly (:attr:`ExchangeOutcome.control_ok`).
    ``delivered / carried`` is P(message decoded | carrier decoded), the
    draw :class:`repro.net.control.ControlPlane` makes per embedded
    message.
    """
    from repro.channel import IndoorChannel
    from repro.cos import CosLink

    channel = IndoorChannel.position(
        position, snr_db=float(int(snr_db)), seed=int(channel_seed)
    )
    stats = CosLink(channel=channel).run(n_packets=int(n_packets), payload=bytes(256))
    carriers = [o for o in stats.outcomes if o.data_ok and o.control_sent.size]
    return sum(o.control_ok for o in carriers), len(carriers)


def fit_cos_curve(delivered, carried) -> np.ndarray:
    """Monotone P(message decoded | carrier decoded) from per-dB counts.

    PAVA (:func:`monotone_fit`) runs over the points where a carrier
    decoded.  A point where none did is no evidence either way: it holds
    the fitted value of the point below it (0 below the first carrier),
    so delivery is never credited, or pooled down, without a measurement.
    """
    delivered = np.asarray(delivered, dtype=np.float64)
    carried = np.asarray(carried, dtype=np.float64)
    seen = carried > 0
    fit = np.zeros(carried.shape, dtype=np.float64)
    fit[seen] = monotone_fit(delivered[seen] / carried[seen])
    last_seen = np.maximum.accumulate(
        np.where(seen, np.arange(carried.size), -1))
    return np.where(last_seen >= 0, fit[last_seen], 0.0)


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


def _cos_trial(spec) -> Tuple[int, int]:
    """Engine trial: one CoS (dB, seed) point (module-level: picklable)."""
    return measure_cos_point(
        spec["position"], spec["snr_db"], spec["channel_seed"],
        spec["n_packets"],
    )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass
class SurrogateTable:
    """A measured, monotone-fitted PRR/CoS-delivery surrogate of the real PHY."""

    spec: SurrogateSpec
    spec_hash: str
    sinr_grid_db: np.ndarray
    prr_raw: Dict[int, np.ndarray]  # rate Mbps -> raw measured PRR
    prr_fit: Dict[int, np.ndarray]  # rate Mbps -> isotonic fit
    cos_grid_db: np.ndarray  # integer dB
    cos_delivered: np.ndarray  # messages decoded exactly, seeds pooled
    cos_carried: np.ndarray  # carriers decoded with control aboard
    cos_fit: np.ndarray  # fit_cos_curve of the counts
    version: int = TABLE_VERSION
    # Python-float copies of the grid and PRR fits for per-frame lookups.
    _grid: List[float] = field(init=False, repr=False, compare=False)
    _prr_curves: Dict[int, List[float]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._grid = np.asarray(self.sinr_grid_db, dtype=np.float64).tolist()
        self._prr_curves = {
            int(r): np.asarray(f, dtype=np.float64).tolist()
            for r, f in self.prr_fit.items()
        }

    @property
    def cos_raw(self) -> np.ndarray:
        """Measured P(message | carrier decoded) per dB; NaN where no
        carrier decoded."""
        return np.divide(
            self.cos_delivered, self.cos_carried,
            out=np.full(self.cos_carried.shape, np.nan),
            where=self.cos_carried > 0,
        )

    def prr(self, sinr_db: float, rate_mbps: int) -> float:
        """Monotone-fitted PRR, linearly interpolated, clamped at the ends.

        Bit-identical to ``np.interp`` over the grid, in Python floats:
        every frame fate calls it, and the grid is uniform, so the node
        index is arithmetic (nudged by one where rounding lands on the
        neighbouring node) instead of an array search.
        """
        try:
            fp = self._prr_curves[int(rate_mbps)]
        except KeyError:
            raise KeyError(
                f"no surrogate curve for {rate_mbps} Mbps; "
                f"known: {sorted(self.prr_fit)}"
            ) from None
        x, xp = float(sinr_db), self._grid
        if x <= xp[0]:
            return fp[0]
        if x >= xp[-1]:
            return fp[-1]
        if x != x:
            return x  # NaN in, NaN out
        j = int((x - xp[0]) / (xp[1] - xp[0]))
        if xp[j] > x:
            j -= 1
        elif xp[j + 1] <= x:
            j += 1
        if x == xp[j]:
            return fp[j]
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        return slope * (x - xp[j]) + fp[j]

    def cos_delivery_prob(self, sinr_db: float) -> float:
        """P(embedded message decoded | carrier decoded) at its SINR.

        The monotone fit at the carrier's SINR rounded to integer dB,
        clamped to the measured range.
        """
        key = int(round(float(sinr_db)))
        lo = int(self.cos_grid_db[0])
        hi = int(self.cos_grid_db[-1])
        key = min(max(key, lo), hi)
        return float(self.cos_fit[key - lo])

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
            "cos_delivered": [int(v) for v in self.cos_delivered],
            "cos_carried": [int(v) for v in self.cos_carried],
            "cos_fit": [float(v) for v in self.cos_fit],
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
        for key in ("channel_seeds", "rates_mbps", "cos_channel_seeds"):
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
            cos_delivered=np.asarray(data["cos_delivered"], dtype=np.int64),
            cos_carried=np.asarray(data["cos_carried"], dtype=np.int64),
            cos_fit=np.asarray(data["cos_fit"], dtype=np.float64),
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
        n_cos = len(self.cos_grid_db)
        for name, counts in (("cos_carried", self.cos_carried),
                             ("cos_delivered", self.cos_delivered)):
            if counts.shape != (n_cos,):
                raise ValueError(f"surrogate table {name!r} has shape "
                                 f"{counts.shape}, its grid has {n_cos} nodes")
        if not np.all((self.cos_delivered >= 0)
                      & (self.cos_delivered <= self.cos_carried)):
            raise ValueError("surrogate table 'cos_delivered' holds a count "
                             "that is negative or above 'cos_carried'")
        curves = [("cos_fit", self.cos_fit, n_cos)]
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
    rate, which PAVA then makes monotone.  The CoS delivery curve runs
    one :func:`measure_cos_point` trial per (integer dB, channel seed);
    the seeds' counts pool into one ``(delivered, carried)`` pair per dB,
    which :func:`fit_cos_curve` fits the same way.
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
            "channel_seed": seed,
            "n_packets": spec.cos_n_packets,
        }
        for snr in cos_grid
        for seed in spec.cos_channel_seeds
    ]
    counts = run_sweep(
        cos_params, _cos_trial, seed=0, workers=workers,
        init=init_phy_worker, label="surrogate.cos",
    )
    # (dB, seed, [delivered, carried]) -> per-dB totals over the seeds.
    pooled = np.asarray(counts, dtype=np.int64).reshape(
        len(cos_grid), len(spec.cos_channel_seeds), 2
    ).sum(axis=1)

    return SurrogateTable(
        spec=spec,
        spec_hash=spec.spec_hash(),
        sinr_grid_db=np.asarray(grid, dtype=np.float64),
        prr_raw=raw,
        prr_fit=fit,
        cos_grid_db=np.asarray(cos_grid, dtype=np.intp),
        cos_delivered=pooled[:, 0],
        cos_carried=pooled[:, 1],
        cos_fit=fit_cos_curve(pooled[:, 0], pooled[:, 1]),
    )


# ---------------------------------------------------------------------------
# Default-table resolution
# ---------------------------------------------------------------------------


def default_table_path() -> Path:
    """The committed table :func:`load_default_table` loads."""
    return _DEFAULT_TABLE


@functools.lru_cache(maxsize=None)
def load_default_table() -> SurrogateTable:
    """The committed table, which must be measured under the default
    :class:`SurrogateSpec` (a smoke-test build written over it is not).

    Loaded once per process: every frame fate and CoS draw of
    ``repro.net`` looks it up, and none may touch the filesystem."""
    path = default_table_path()
    if not path.exists():
        raise FileNotFoundError(
            f"no surrogate table at {path}; build one with "
            "'repro net tables build'"
        )
    table = SurrogateTable.load(path)
    expected = SurrogateSpec().spec_hash()
    if table.spec_hash != expected:
        raise ValueError(
            f"surrogate table {path} was measured under spec "
            f"{table.spec_hash}, not the default spec {expected}; rebuild "
            "it with 'repro net tables build'"
        )
    return table

