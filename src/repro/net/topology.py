"""Spatial layer: node positions, mobility waypoints, log-distance path loss.

Per-link received power follows the log-distance model

    P_rx(d) = P_tx - [PL(d0) + 10 n log10(d / d0)]

with the 5 GHz-ish defaults ``PL(1 m) = 46.7 dB`` and indoor exponent
``n = 3``.  Everything downstream (carrier sense, SNR, SINR) derives
from :meth:`Topology.rx_power_dbm`, so hidden nodes are purely a matter
of geometry: two stations far enough apart that each other's power lands
below the carrier-sense threshold cannot coordinate, yet both still
deposit interference power at a receiver between them.

Scale-out machinery (multi-BSS refactor):

* A **uniform-grid spatial index** (:class:`GridIndex`) over the static
  nodes, cell size = the carrier-sense range at ``cs_threshold_dbm``.
  :meth:`Topology.neighbors_of` answers "who could possibly matter
  within ``radius_m``" as a superset query (bounding-box cells), so the
  medium only computes exact powers for a local neighbourhood instead of
  all pairs.  Mobile nodes (any node with waypoints) are *never* binned:
  they live in an always-returned set, which keeps culling exact without
  rebinning on every position change.
* **Per-pair path-loss caching** for static nodes: the log-distance
  formula (hypot + log10) runs once per unordered pair and is a dict hit
  afterwards.  Pairs involving a mobile node are always recomputed.
* :meth:`Topology.invalidate` — the mobility hook: pin a node at its
  position at ``t_us`` (typically its last waypoint), drop its cache
  entries, and move it from the mobile set into the grid so it becomes
  cacheable/cullable again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = ["RadioSpec", "Waypoint", "GridIndex", "Topology"]


@dataclass(frozen=True)
class RadioSpec:
    """Radio/propagation parameters shared by every node in a scenario.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power (17 dBm is a typical WLAN client).
    cs_threshold_dbm:
        Carrier-sense (energy-detect) threshold: a node defers while the
        aggregate received power from other transmitters is at or above
        this level.
    capture_threshold_db:
        Minimum SINR for the receiver to lock onto a frame at all; above
        it, decoding succeeds with the rate-dependent PRR of the error
        model (the capture effect: a strong frame survives a collision).
    noise_figure_db / bandwidth_hz:
        Thermal noise floor: ``-174 + 10 log10(BW) + NF`` dBm.
    path_loss_exponent / ref_loss_db / ref_distance_m:
        Log-distance path-loss model parameters.
    min_distance_m:
        Hard floor on the model distance so ``log10`` never sees zero —
        two nodes sharing a position (a coincident waypoint crossing)
        yield the finite near-field loss at this distance instead of
        ``-inf``/``nan`` power.
    interference_floor_dbm:
        Culling threshold for the medium's spatially-indexed mode: a
        transmission's contribution at a listener below this level is
        treated as zero (it neither trips carrier sense nor accumulates
        as interference).  ``-inf`` disables culling — bit-for-bit the
        all-pairs semantics.
    adjacent_rejection_db:
        Receive-filter rejection per channel step: a signal on channel
        ``c`` is attenuated ``|c - c'| * adjacent_rejection_db`` at a
        listener on channel ``c'`` (co-channel = 0 dB).
    """

    tx_power_dbm: float = 17.0
    cs_threshold_dbm: float = -82.0
    capture_threshold_db: float = 4.0
    noise_figure_db: float = 7.0
    bandwidth_hz: float = 20e6
    path_loss_exponent: float = 3.0
    ref_loss_db: float = 46.7
    ref_distance_m: float = 1.0
    min_distance_m: float = 0.1
    interference_floor_dbm: float = -100.0
    adjacent_rejection_db: float = 25.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValueError(f"{f.name} must be a number, "
                                 f"got {value!r}") from None
            if f.name == "interference_floor_dbm":
                if not (finite or value == float("-inf")):
                    raise ValueError(
                        f"{f.name} must be finite or -inf, got {value!r}")
            elif not finite:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.path_loss_exponent <= 0.0:
            raise ValueError("path_loss_exponent must be positive")
        if self.ref_distance_m <= 0.0:
            raise ValueError("ref_distance_m must be positive")
        if self.min_distance_m <= 0.0:
            raise ValueError("min_distance_m must be positive")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth_hz must be positive")
        if self.adjacent_rejection_db < 0.0:
            raise ValueError("adjacent_rejection_db must be >= 0")

    @property
    def noise_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


@dataclass(frozen=True)
class Waypoint:
    """A mobility anchor: be at ``(x, y)`` at time ``t_us``."""

    t_us: float
    x: float
    y: float


class GridIndex:
    """Uniform-grid spatial hash over named 2-D points.

    Cells are ``cell_m`` squares keyed by ``(floor(x/cell), floor(y/cell))``.
    :meth:`query_disk` returns the names in every cell intersecting the
    disk's bounding box — a superset of the true disk, cheap and exact
    enough as a pre-filter (callers do the precise power test).  Names
    within a cell keep insertion order, so queries are deterministic.
    """

    __slots__ = ("cell_m", "_cells", "_where")

    def __init__(self, cell_m: float) -> None:
        if not (cell_m > 0.0) or math.isinf(cell_m):
            raise ValueError("cell_m must be positive and finite")
        self.cell_m = float(cell_m)
        self._cells: Dict[Tuple[int, int], List[str]] = {}
        self._where: Dict[str, Tuple[int, int]] = {}

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.cell_m)),
                int(math.floor(y / self.cell_m)))

    def insert(self, name: str, x: float, y: float) -> None:
        if name in self._where:
            raise ValueError(f"duplicate grid entry {name!r}")
        key = self._key(x, y)
        self._cells.setdefault(key, []).append(name)
        self._where[name] = key

    def remove(self, name: str) -> None:
        key = self._where.pop(name)
        cell = self._cells[key]
        cell.remove(name)
        if not cell:
            del self._cells[key]

    def move(self, name: str, x: float, y: float) -> None:
        key = self._key(x, y)
        if self._where.get(name) == key:
            return
        self.remove(name)
        self._cells.setdefault(key, []).append(name)
        self._where[name] = key

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, name: str) -> bool:
        return name in self._where

    def query_disk(self, x: float, y: float, radius_m: float) -> List[str]:
        """Names in every cell touching the disk's bounding box (superset)."""
        if math.isinf(radius_m):
            out: List[str] = []
            for key in sorted(self._cells):
                out.extend(self._cells[key])
            return out
        cx0 = int(math.floor((x - radius_m) / self.cell_m))
        cx1 = int(math.floor((x + radius_m) / self.cell_m))
        cy0 = int(math.floor((y - radius_m) / self.cell_m))
        cy1 = int(math.floor((y + radius_m) / self.cell_m))
        cells = self._cells
        # Walk the (small) bounding box when it is sparser than the
        # occupied-cell set; otherwise scan occupied cells directly.
        n_box = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        out = []
        if n_box <= len(cells) * 2:
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    names = cells.get((cx, cy))
                    if names:
                        out.extend(names)
        else:
            for key in sorted(cells):
                if cx0 <= key[0] <= cx1 and cy0 <= key[1] <= cy1:
                    out.extend(cells[key])
        return out


class Topology:
    """Positions + radio model; answers power/SNR/carrier-sense queries.

    ``mobility`` maps node name to a waypoint sequence; positions are
    piecewise-linearly interpolated between waypoints (clamped at the
    ends), so a node with no waypoints simply sits still.
    """

    def __init__(
        self,
        positions: Mapping[str, Tuple[float, float]],
        radio: RadioSpec = RadioSpec(),
        mobility: Mapping[str, Sequence[Waypoint]] = None,
    ) -> None:
        if not positions:
            raise ValueError("topology needs at least one node")
        self.radio = radio
        #: ``radio.noise_dbm``, taken once (the spec is frozen).
        self.noise_dbm = radio.noise_dbm
        self._static: Dict[str, Tuple[float, float]] = {
            name: (float(x), float(y)) for name, (x, y) in positions.items()
        }
        self._mobility: Dict[str, Tuple[Waypoint, ...]] = {}
        for name, waypoints in (mobility or {}).items():
            if name not in self._static:
                raise ValueError(f"mobility for unknown node {name!r}")
            wps = tuple(sorted(waypoints, key=lambda w: w.t_us))
            if wps:
                self._mobility[name] = wps
        # Spatial index over *static* nodes; mobile nodes are always
        # visited (exact culling without rebinning on motion).
        self.cs_range_m = self.range_for_rx_dbm(radio.cs_threshold_dbm)
        self.relevance_range_m = self.range_for_rx_dbm(
            radio.interference_floor_dbm
        )
        cell = self.cs_range_m
        if not math.isfinite(cell) or cell < 1.0:
            cell = 1.0
        self._grid = GridIndex(cell)
        self._mobile: List[str] = []  # insertion order = spec order
        for name, (x, y) in self._static.items():
            if name in self._mobility:
                self._mobile.append(name)
            else:
                self._grid.insert(name, x, y)
        self._pl_cache: Dict[Tuple[str, str], float] = {}

    @property
    def names(self) -> Iterable[str]:
        return self._static.keys()

    def is_mobile(self, name: str) -> bool:
        return name in self._mobility

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def position(self, name: str, t_us: float = 0.0) -> Tuple[float, float]:
        wps = self._mobility.get(name)
        if not wps:
            return self._static[name]
        if t_us <= wps[0].t_us:
            return (wps[0].x, wps[0].y)
        if t_us >= wps[-1].t_us:
            return (wps[-1].x, wps[-1].y)
        for a, b in zip(wps, wps[1:]):
            if a.t_us <= t_us <= b.t_us:
                span = b.t_us - a.t_us
                frac = 0.0 if span <= 0 else (t_us - a.t_us) / span
                return (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))
        raise AssertionError("unreachable")  # pragma: no cover

    def distance_m(self, a: str, b: str, t_us: float = 0.0) -> float:
        xa, ya = self.position(a, t_us)
        xb, yb = self.position(b, t_us)
        return math.hypot(xa - xb, ya - yb)

    # ------------------------------------------------------------------
    # Spatial index
    # ------------------------------------------------------------------

    def neighbors_of(self, name: str, radius_m: float,
                     t_us: float = 0.0) -> List[str]:
        """Candidate nodes within ``radius_m`` of ``name`` (superset).

        Static nodes come from the grid (bounding-box cells, so a few
        beyond the radius may appear — callers do the exact power test);
        every mobile node is always included.  ``name`` itself may be in
        the result.  Deterministic: grid cells in sorted key order /
        bounding-box scan order, mobile nodes in spec order.
        """
        names = self._grid.query_disk(*self.position(name, t_us),
                                      radius_m=radius_m)
        if self._mobile:
            names = names + self._mobile
        return names

    def invalidate(self, name: str, t_us: float = 0.0) -> None:
        """Pin ``name`` at its position at ``t_us`` and re-index it.

        The mobility hook: once a node's waypoints are exhausted (or a
        caller decides its motion is over), pinning it makes the node
        static again — grid-binned, path-loss-cacheable, cullable.  Any
        cached pairs involving it are dropped.
        """
        if name not in self._static:
            raise KeyError(f"unknown node {name!r}")
        pos = self.position(name, t_us)
        if self._pl_cache:
            self._pl_cache = {
                k: v for k, v in self._pl_cache.items() if name not in k
            }
        if name in self._mobility:
            del self._mobility[name]
            self._mobile.remove(name)
            self._static[name] = pos
            self._grid.insert(name, *pos)
        else:
            self._static[name] = pos
            self._grid.move(name, *pos)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def path_loss_db(self, distance_m: float) -> float:
        r = self.radio
        d = max(distance_m, r.min_distance_m, r.ref_distance_m)
        return r.ref_loss_db + 10.0 * r.path_loss_exponent * math.log10(
            d / r.ref_distance_m
        )

    def range_for_rx_dbm(self, rx_dbm: float) -> float:
        """Distance at which received power falls to ``rx_dbm``.

        The inverse of the log-distance model; ``-inf`` maps to ``inf``
        (everything is relevant), and the result never drops below the
        model's distance floor.
        """
        r = self.radio
        if math.isinf(rx_dbm) and rx_dbm < 0:
            return float("inf")
        exponent = (r.tx_power_dbm - rx_dbm - r.ref_loss_db) / (
            10.0 * r.path_loss_exponent
        )
        d = r.ref_distance_m * 10.0 ** exponent
        return max(d, r.min_distance_m, r.ref_distance_m)

    def rx_power_dbm(self, src: str, dst: str, t_us: float = 0.0) -> float:
        """Received power at ``dst`` of a transmission from ``src``.

        Static-pair path losses are cached (symmetric key); pairs with a
        mobile endpoint are recomputed at ``t_us``.
        """
        mobility = self._mobility
        if src not in mobility and dst not in mobility:
            key = (src, dst) if src <= dst else (dst, src)
            pl = self._pl_cache.get(key)
            if pl is None:
                pl = self.path_loss_db(self.distance_m(src, dst))
                self._pl_cache[key] = pl
            return self.radio.tx_power_dbm - pl
        return self.radio.tx_power_dbm - self.path_loss_db(
            self.distance_m(src, dst, t_us)
        )

    def snr_db(self, src: str, dst: str, t_us: float = 0.0) -> float:
        """Interference-free SNR of the ``src -> dst`` link."""
        return self.rx_power_dbm(src, dst, t_us) - self.noise_dbm

    def senses(self, listener: str, transmitter: str, t_us: float = 0.0) -> bool:
        """True if ``listener`` carrier-senses ``transmitter``'s signal.

        Symmetric for equal transmit powers; with a single shared
        :class:`RadioSpec` that is always the case here.
        """
        return (
            self.rx_power_dbm(transmitter, listener, t_us)
            >= self.radio.cs_threshold_dbm
        )
