"""One workload of the layered benchmark, in its own process.

``run.py`` starts this script once per workload and reads the JSON object
it prints as its last line.  Usage::

    python workloads.py --workload NAME --seed N --seconds S
                        [--scale full|smoke] [--trace] [--setup-only]
                        [--spawned-at T] [--spans-out PATH]
    python workloads.py --probe

A run has two phases.  *Set-up* imports ``repro``, warms the kernels and
builds the workload's inputs from ``--seed``; then, untimed, the fixed
reference chunk (see ``Reference``) measures the host's speed.  The
*timed phase* runs fixed-size blocks of operations until
``--seconds`` have passed (at least one block), timing every request and
every block and reading the host's steal around each block; after each
block it checks the outputs and times the fixed reference chunk (see
``Reference``), both untimed.  ``--trace`` installs the
outside-in tracer of ``trace.py`` before set-up and folds its spans over
the timed phase.  ``--probe`` only builds the kernels and reports what a
benchmark record is stamped with.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # before ``import repro``: set-up starts here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _load_tracer_module():
    # Loaded by path under its own name: a plain ``import trace`` would
    # shadow (or be shadowed by) the standard library's ``trace``.
    spec = importlib.util.spec_from_file_location("layers_trace", HERE / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_trace = _load_tracer_module()

clock = time.perf_counter

#: Blocks a full-scale timed phase runs at least, so that a block median
#: has a middle even when one block of a long-block workload runs long.
MIN_BLOCKS = 3


def canonical_digest(outputs: Any) -> str:
    """sha256 over the canonical JSON rendering of a workload's outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Times each request of the timed phase and tags spans with its index.

    Each request gets a wall-clock latency and a CPU service time: the
    CPU this process, and child processes reaped meanwhile, spent on it.
    ``kind`` names the request's type (a link's rate, a PHY group, a
    scenario); percentiles are taken per type (see :func:`typed_percentiles`).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.block = 0  # index of the block in progress, set by the harness
        self.latencies_s: List[float] = []
        self.service_s: List[float] = []
        self.kinds: List[Any] = []
        self.blocks: List[int] = []

    def call(self, kind: Any, fn: Callable, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.begin_op()
        c0 = _cpu_s()
        t0 = clock()
        result = fn(*args, **kwargs)
        self.latencies_s.append(clock() - t0)
        self.service_s.append(_cpu_s() - c0)
        self.kinds.append(kind)
        self.blocks.append(self.block)
        return result


@dataclasses.dataclass
class Checked:
    """What checking one block's outputs found."""

    failed: int  # operations whose outputs failed a check
    outputs: Any  # canonical (JSON-able) outputs, digested for block 0
    delivered: int  # success_ratio numerator ...
    outcomes: int  # ... over this denominator (exchanges, packets, frames, trials)
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CosClosedLoop:
    """The paper's loop at batch size 1: rate select, silence insert,
    energy detect, erasure Viterbi, feedback — one caller, 16 links."""

    name = "cos-closed-loop"
    kind = "link"
    op = "exchange"
    request = "exchange"
    #: (position, measured SNR dB) at the centre of the 12 / 24 / 36 / 54 Mbps
    #: staircase bands, each with REALISATIONS channel draws.
    RATE_POINTS = (("A", 8.3), ("B", 14.6), ("C", 18.6), ("A", 25.0))
    REALISATIONS = 4
    #: Back-to-back aggregated frames: each link's channel moves a few ms
    #: per run, so its rate stays in its band and the work per exchange
    #: does not depend on the seed.
    GAP_S = 1e-4
    CONTROL_BITS = 32
    PAYLOAD = bytes(range(256)) * 2  # repro.experiments.common.DEFAULT_PAYLOAD

    def __init__(self, seed: int, full: bool) -> None:
        import numpy as np

        from repro.channel import IndoorChannel
        from repro.cos.link import CosLink
        from repro.ratectl import DEFAULT_THRESHOLDS

        self.np = np
        self.thresholds = dict(DEFAULT_THRESHOLDS)
        self.links = [
            (r, CosLink(IndoorChannel.position(pos, snr_db=snr,
                                               seed=np.random.default_rng([seed, r, j])),
                        inter_packet_gap_s=self.GAP_S))
            for j in range(self.REALISATIONS)
            for r, (pos, snr) in enumerate(self.RATE_POINTS)
        ]
        self.bits = np.random.default_rng([seed, len(self.RATE_POINTS)])
        self.block_size = 4 * len(self.links) if full else 8
        self.n = 0

    def staircase_mbps(self, measured_snr_db: float) -> int:
        eligible = [m for m, t in self.thresholds.items() if measured_snr_db >= t]
        return max(eligible) if eligible else min(self.thresholds)

    def run_block(self, rec: Recorder) -> Tuple[int, Any]:
        outcomes = []
        for _ in range(self.block_size):
            rate_point, link = self.links[self.n % len(self.links)]
            bits = self.bits.integers(0, 2, size=self.CONTROL_BITS, dtype=self.np.uint8)
            outcomes.append(rec.call(rate_point, link.exchange, self.PAYLOAD, bits))
            self.n += 1
        return len(outcomes), outcomes

    def check_block(self, outcomes) -> Checked:
        failed = data_fail = control_loss = with_control = 0
        outputs = []
        for o in outcomes:
            if o.rate_mbps != self.staircase_mbps(o.measured_snr_db):
                failed += 1
            data_fail += not o.data_ok
            if o.control_sent.size:
                with_control += 1
                control_loss += not o.control_ok
            outputs.append([o.rate_mbps, bool(o.data_ok), o.control_sent.tolist(),
                            o.control_received.tolist(), int(o.n_silences),
                            repr(o.measured_snr_db)])
        return Checked(failed, outputs, len(outcomes) - data_fail, len(outcomes), {
            "crc_fail": data_fail, "control_loss": control_loss,
            "with_control": with_control,
        })

    def close(self) -> None:
        pass


class PhyBatchRx:
    """Open loop over waveforms synthesised in set-up: ``receive_many`` on
    one batch per (rate, PSDU size) group, 8 rates x {64, 256} B."""

    name = "phy-batch-rx"
    kind = "link"
    op = "packet"
    request = "receive_many batch"
    PSDU_OCTETS = (64, 256)
    SNR_MARGIN_DB = 3.0
    EQUIVALENCE_PACKETS = 8

    def __init__(self, seed: int, full: bool) -> None:
        import numpy as np

        from repro.channel import IndoorChannel
        from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
        from repro.ratectl import DEFAULT_THRESHOLDS

        batch = 64 if full else 4
        tx = Transmitter()
        self.rx = Receiver()
        self.groups = []  # (mbps, psdus, stacked waveforms)
        for g, (mbps, octets) in enumerate(
            (m, o) for m in sorted(RATE_TABLE) for o in self.PSDU_OCTETS
        ):
            rng = np.random.default_rng([seed, g])
            channel = IndoorChannel.position(
                "A", snr_db=DEFAULT_THRESHOLDS[mbps] + self.SNR_MARGIN_DB, seed=rng
            )
            psdus, waves = [], []
            for _ in range(batch):
                payload = rng.integers(0, 256, size=octets - 4, dtype=np.uint8).tobytes()
                psdu = build_mpdu(payload)  # payload + 4-octet FCS
                psdus.append(psdu)
                waves.append(channel.transmit(tx.transmit(psdu, RATE_TABLE[mbps]).waveform))
                channel.evolve(1e-3)
            self.groups.append((mbps, psdus, np.stack(waves)))
        self.equivalence_ok = self._check_equivalence()

    def _check_equivalence(self) -> bool:
        """``receive_many`` equals looped ``receive`` on the head of each group."""
        for _, _, waves in self.groups:
            head = waves[: self.EQUIVALENCE_PACKETS]
            batched = self.rx.receive_many(head)
            looped = [self.rx.receive(w) for w in head]
            for b, s in zip(batched, looped):
                if b.ok != s.ok or _psdu(b) != _psdu(s):
                    return False
                if (b.pre_viterbi_bits is None) != (s.pre_viterbi_bits is None):
                    return False
                if b.pre_viterbi_bits is not None and not (
                    b.pre_viterbi_bits == s.pre_viterbi_bits
                ).all():
                    return False
        return True

    def run_block(self, rec: Recorder) -> Tuple[int, Any]:
        results = [rec.call(g, self.rx.receive_many, waves)
                   for g, (_, _, waves) in enumerate(self.groups)]
        return sum(len(r) for r in results), results

    def check_block(self, results) -> Checked:
        failed = success = 0
        outputs = []
        for (mbps, psdus, _), group in zip(self.groups, results):
            for sent, r in zip(psdus, group):
                received = _psdu(r)
                if r.ok:
                    success += 1
                    failed += received != sent
                outputs.append([mbps, bool(r.ok), _short_hash(received)])
        return Checked(failed, outputs, success, len(outputs),
                       {"crc_fail": len(outputs) - success})

    def close(self) -> None:
        pass


def _psdu(result) -> Optional[bytes]:
    return None if result.decoded is None else bytes(result.decoded.psdu)


def _short_hash(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


class NetGrid:
    """``enterprise-grid`` with 64 APs x 15 stations (1024 nodes), culled
    medium, ``snr-threshold`` control, 50 ms simulated per trial."""

    name = "net-grid-1024"
    kind = "net"
    op = "event"
    request = "1 ms of simulated time"
    SLICE_US = 1000.0
    #: A trial (~3 s) spans five blocks, so that the host speed measured
    #: between blocks follows the host within a trial.
    SLICES_PER_BLOCK = 10

    def __init__(self, seed: int, full: bool) -> None:
        from repro.net import NetSimulator, enterprise_grid

        def grid(n_aps: int, duration_us: float):
            spec = enterprise_grid(n_aps=n_aps, stations_per_ap=15, duration_us=duration_us)
            return dataclasses.replace(spec, controller="snr-threshold")

        self.simulator = NetSimulator
        self.spec = grid(64, 50_000.0) if full else grid(4, 10_000.0)
        if full and len(self.spec.nodes) != 1024:
            raise RuntimeError(f"grid has {len(self.spec.nodes)} nodes, expected 1024")
        # Warm lazily built state (surrogate/sigmoid tables, imports) on a
        # small grid, outside the timed phase.
        NetSimulator(grid(1, 2_000.0), rng=seed).run()
        self.seed = seed
        self.trial = 0
        self.n_slices = int(round(self.spec.duration_us / self.SLICE_US))
        self.sim = None  # the trial in progress
        self.slice = 0

    @property
    def mid_trial(self) -> bool:
        """A trial is in progress; the timed phase ends only between trials."""
        return self.sim is not None

    def run_block(self, rec: Recorder) -> Tuple[int, Any]:
        # The trial in progress (or a new one), advanced in slices so each
        # simulated millisecond is a timed request.  ``EventScheduler.run``
        # is resumable, so the final ``run()`` only builds the result: it
        # equals ``run_scenario``.  The trial's result is the last block's.
        if self.sim is None:
            self.sim = self.simulator(self.spec, rng=self.seed + self.trial)
            self.trial += 1
            self.slice = 0
        scheduler = self.sim.scheduler
        dispatched = scheduler.n_dispatched
        for _ in range(min(self.SLICES_PER_BLOCK, self.n_slices - self.slice)):
            self.slice += 1
            rec.call(0, scheduler.run, self.slice * self.SLICE_US)
        result = None
        if self.slice == self.n_slices:
            result = self.sim.run()
            self.sim = None
        return scheduler.n_dispatched - dispatched, result

    def check_block(self, result) -> Checked:
        if result is None:  # the trial goes on; it is checked at its end
            return Checked(0, None, 0, 0)
        bad = [n for n, s in result.per_node.items() if s.data_delivered > s.data_generated]
        attempts = sum(s.data_attempts for s in result.per_node.values())
        rx_ok = sum(s.data_rx_ok for s in result.per_node.values())
        failed = result.n_events if bad else 0
        return Checked(failed, result.to_dict(), rx_ok, attempts)

    def close(self) -> None:
        pass


class _Sweep:
    """What both controller-matrix sweeps share (``repro net compare``)."""

    kind = "sweep"
    op = "trial"
    WORKERS = 2

    def __init__(self, seed: int, full: bool) -> None:
        from repro import engine
        from repro.net import cross_cell, hidden_node
        from repro.obs.metrics import get_registry
        from repro.ratectl import CONTROLLER_MATRIX, compare_controllers

        self.engine = engine
        self.compare = compare_controllers
        self.registry = get_registry()
        self.controllers = CONTROLLER_MATRIX
        self.seed = seed
        if full:
            self.specs = [hidden_node(), cross_cell()]
            self.n_trials = 4
        else:
            self.specs = [hidden_node(n_packets=200, duration_us=60_000.0),
                          cross_cell(n_uplink_packets=80, n_cross_packets=24,
                                     duration_us=60_000.0)]
            self.n_trials = 1
        self.trials_per_pass = len(self.specs) * len(self.controllers) * self.n_trials
        self.tmp = Path(tempfile.mkdtemp(prefix="layers-store-"))

    def counter(self, name: str) -> float:
        return self.registry.counter(name).value

    def fresh_store(self):
        store = self.engine.ResultStore(tempfile.mkdtemp(dir=self.tmp))
        self.engine.set_default_store(store)
        return store

    def run_pass(self, rec: Optional[Recorder]) -> Dict:
        """The matrix once, one (scenario, controller) call per request."""
        call = rec.call if rec is not None else (lambda kind, fn, *a, **k: fn(*a, **k))
        report: Dict[str, Dict] = {}
        for spec in self.specs:
            rows = report.setdefault(spec.name, {})
            for controller in self.controllers:
                # Request type = scenario: a controller's cost difference is
                # systematic, while a few calls per (scenario, controller)
                # are too few to centre on.
                out = call(spec.name, self.compare, spec,
                           controllers=(controller,), n_trials=self.n_trials,
                           seed=self.seed, workers=self.WORKERS)
                rows.update(out["controllers"])
        return report

    def close(self) -> None:
        self.engine.set_default_store(None)
        shutil.rmtree(self.tmp, ignore_errors=True)


class SweepCold(_Sweep):
    """The 5-controller matrix on hidden-node and cross-cell, 4 trials
    each, 2 workers, into a fresh result store every pass."""

    name = "sweep-cold"
    request = "controller x scenario call"

    def __init__(self, seed: int, full: bool) -> None:
        super().__init__(seed, full)
        self.first: Optional[Dict] = None

    def run_block(self, rec: Recorder) -> Tuple[int, Any]:
        store = self.fresh_store()
        misses = self.counter("repro_store_misses_total")
        report = self.run_pass(rec)
        misses = self.counter("repro_store_misses_total") - misses
        return self.trials_per_pass, (report, misses, store.root)

    def check_block(self, block) -> Checked:
        report, misses, root = block
        shutil.rmtree(root, ignore_errors=True)
        if self.first is None:
            self.first = report
        rows = report["hidden-node"]
        ok = (report == self.first and misses == self.trials_per_pass
              and rows["cos-feedback"]["goodput_mbps"] >= rows["explicit-feedback"]["goodput_mbps"])
        failed = 0 if ok else self.trials_per_pass
        return Checked(failed, report, self.trials_per_pass - failed,
                       self.trials_per_pass, {"store_misses": int(misses)})


class SweepWarm(_Sweep):
    """The same matrix replayed from a store that set-up populated."""

    name = "sweep-warm"
    request = "controller x scenario call"

    def __init__(self, seed: int, full: bool) -> None:
        super().__init__(seed, full)
        self.fresh_store()
        self.cold = self.run_pass(None)
        self.passes_per_block = 10 if full else 2

    def run_block(self, rec: Recorder) -> Tuple[int, Any]:
        replays = []
        for _ in range(self.passes_per_block):
            hits = self.counter("repro_store_hits_total")
            report = self.run_pass(rec)
            replays.append((report, self.counter("repro_store_hits_total") - hits))
        return self.trials_per_pass * len(replays), replays

    def check_block(self, replays) -> Checked:
        bad = sum(1 for report, hits in replays
                  if report != self.cold or hits != self.trials_per_pass)
        failed = bad * self.trials_per_pass
        total = len(replays) * self.trials_per_pass
        hits = int(sum(h for _, h in replays))
        return Checked(failed, self.cold, total - failed, total,
                       {"store_hits": hits, "store_lookups": total})


WORKLOADS = {w.name: w for w in (CosClosedLoop, PhyBatchRx, NetGrid, SweepCold, SweepWarm)}


# ---------------------------------------------------------------------------
# The process
# ---------------------------------------------------------------------------


def _children_cpu_s() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (excludes steal)."""
    return time.process_time() + _children_cpu_s()


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _steal_s() -> float:
    """Time the hypervisor has given this machine's CPUs to other guests
    (the ``steal`` column of ``/proc/stat``); 0 where it is not reported.
    An idle virtual CPU accrues none, so while one process computes, the
    machine's steal is that process's."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


#: Share of each block's wall time spent, after the block, timing the
#: reference chunk.
REFERENCE_SHARE = 0.1
#: Seconds spent timing the reference chunk right after set-up.
SETUP_REFERENCE_S = 0.3
#: Reference-chunk CPU time (ms) that time metrics are normalised to: its
#: median on the 2-vCPU x86_64 VM the bounds were set on.
REFERENCE_MS = 3.4


class Reference:
    """Times a fixed chunk of work, independent of ``repro``, between blocks.

    The host's speed drifts, by a quarter and more, over stretches of
    seconds to minutes, and moves the workloads and this chunk together.
    The first gap follows set-up, and gap ``i + 1`` follows block ``i``.
    ``speed`` is ``REFERENCE_MS`` over the chunk's median CPU time in the
    given gaps; multiplying a block's times (or set-up's) by the speed
    around it cancels the drift.  The chunk never changes, so a change to
    ``repro`` still shows in full.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.signal = np.linspace(-1.0, 1.0, 256)
        self.gaps: List[List[float]] = []  # CPU seconds of each chunk
        for _ in range(3):  # warm-up: first calls, caches
            self.chunk()

    def chunk(self) -> float:
        """Interpreted Python and small numpy calls, like the workloads' mix."""
        np = self.np
        acc = 0.0
        table: Dict[int, int] = {}
        for i in range(120):
            spectrum = np.fft.rfft(self.signal * (1.0 + i * 1e-3))
            acc += float(np.abs(spectrum).sum())
            for j in range(60):
                table[j & 15] = table.get(j & 15, 0) + i * j
        return acc + sum(table.values())

    def measure(self, budget_s: float) -> None:
        """One gap: time chunks until ``budget_s`` has been spent (at
        least one chunk)."""
        gap: List[float] = []
        t0 = clock()
        while not gap or clock() - t0 < budget_s:
            c0 = time.process_time()
            self.chunk()
            gap.append(time.process_time() - c0)
        self.gaps.append(gap)

    def speed(self, *gaps: int) -> float:
        """Host speed over the given gaps."""
        chunks = [c for g in gaps for c in self.gaps[g]]
        return REFERENCE_MS / (statistics.median(chunks) * 1e3)

    def summary(self) -> Dict[str, float]:
        chunks = [c for gap in self.gaps for c in gap]
        return {"chunks": len(chunks), "cpu_ms": statistics.median(chunks) * 1e3}


def typed_percentiles(samples_s: List[float], rec: Recorder) -> Dict[str, Any]:
    """p50 and p90 (ms) of per-request samples, robust to request mix and stalls.

    A plain median over a mix of request types sits between two clusters
    and jumps with noise.  So each sample is divided by the median of its
    type; ``p50_ms`` is the geometric mean of the type medians.  A stall
    that hits one stretch of a run decides a pooled 90th percentile, so
    ``p90_ms`` is ``p50_ms`` times the median over blocks of each block's
    90th percentile of normalised samples.  With one request type and one
    block these are the plain p50 and p90.
    """
    by_kind: Dict[Any, List[float]] = {}
    for sample, kind in zip(samples_s, rec.kinds):
        by_kind.setdefault(kind, []).append(sample * 1e3)
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    typical = statistics.geometric_mean(medians.values())
    by_block: Dict[int, List[float]] = {}
    for sample, kind, block in zip(samples_s, rec.kinds, rec.blocks):
        by_block.setdefault(block, []).append(sample * 1e3 / medians[kind])
    tails = [statistics.quantiles(r, n=10)[8] if len(r) >= 2 else r[0]
             for r in by_block.values()]
    return {"n": len(samples_s), "p50_ms": typical, "p90_ms": typical * statistics.median(tails),
            "median_ms_by_kind": medians}


def _check_source_tree() -> None:
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"imported repro from {source}, not from {ROOT / 'src'}")


def versions() -> Dict:
    """What a benchmark record is stamped with; builds the kernels first."""
    import platform

    import numpy

    import repro
    from repro import kernels

    _check_source_tree()
    return {
        "kernel_backend": kernels.warmup(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "repro": repro.__version__,
    }


def run(args) -> Dict:
    spawned_at = args.spawned_at if args.spawned_at is not None else T_PROCESS
    cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = layer_trace.Tracer()
        tracer.install(layer_trace.SWEEP_LAYERS if cls.kind == "sweep" else layer_trace.LAYERS)

    stamp = versions()
    workload = cls(args.seed, args.scale == "full")
    setup = {"setup_s": clock() - spawned_at}
    try:
        reference = Reference()
        reference.measure(SETUP_REFERENCE_S)
        setup["setup_speed"] = reference.speed(0)
        if args.setup_only:
            return {"workload": cls.name, **setup, "versions": stamp}
        if tracer is not None:
            tracer.calibrate()
            tracer.reset()
        return _timed_phase(workload, args, tracer, reference, setup, stamp)
    finally:
        workload.close()
        if tracer is not None:
            if args.spans_out:
                tracer.write_spans(args.spans_out)
            tracer.uninstall()


def _timed_phase(workload, args, tracer, reference: Reference, setup: Dict,
                 stamp: Dict) -> Dict:
    rec = Recorder(tracer)
    min_blocks = MIN_BLOCKS if args.scale == "full" else 1
    blocks: List[Dict] = []
    failed = delivered = outcomes = 0
    counts: Dict[str, int] = {}
    digest = None
    cpu0, kids0 = _cpu_s(), _children_cpu_s()
    t0 = clock()
    while True:
        # Traced runs alternate untraced and traced blocks, so that the
        # tracer's overhead is measured against the same process and time.
        traced = tracer is not None and len(blocks) % 2 == 1
        if tracer is not None:
            tracer.attach() if traced else tracer.detach()
        spans0 = len(tracer) if traced else 0
        rec.block = len(blocks)
        s0, c0 = _steal_s(), _cpu_s()
        b0 = clock()
        ops, raw = workload.run_block(rec)
        wall = clock() - b0
        cpu = _cpu_s() - c0
        # Steal can only have taken time this process was off its CPU.
        steal = min(_steal_s() - s0, max(wall - cpu, 0.0))
        block = {"ops": ops, "wall_s": wall, "cpu_s": cpu, "steal_s": steal}
        if tracer is not None:
            block.update(traced=traced, spans=len(tracer) - spans0 if traced else 0)
        blocks.append(block)
        checked = workload.check_block(raw)
        failed += checked.failed
        delivered += checked.delivered
        outcomes += checked.outcomes
        for key, value in checked.counts.items():
            counts[key] = counts.get(key, 0) + value
        if digest is None and checked.outputs is not None:
            digest = canonical_digest(checked.outputs)
        reference.measure(REFERENCE_SHARE * wall)
        if (clock() - t0 >= args.seconds and len(blocks) >= min_blocks
                and len(blocks) % (1 if tracer is None else 2) == 0
                and not getattr(workload, "mid_trial", False)):
            break
    phase_wall = clock() - t0
    cpu_s = _cpu_s() - cpu0
    for i, block in enumerate(blocks):
        block["speed"] = reference.speed(i, i + 1)

    def normalised(samples_s: List[float], unstolen: bool) -> List[float]:
        """Samples times their block's speed; wall-clock samples also lose
        the block's stolen share, spread evenly over its requests."""
        out = []
        for sample, b in zip(samples_s, rec.blocks):
            block = blocks[b]
            share = 1.0 - block["steal_s"] / block["wall_s"] if unstolen else 1.0
            out.append(sample * share * block["speed"])
        return out

    ops = sum(b["ops"] for b in blocks)
    block_wall = sum(b["wall_s"] for b in blocks)
    checks = {"outputs": failed == 0}
    if isinstance(workload, PhyBatchRx):
        checks["receive_many_equals_receive"] = workload.equivalence_ok
    out = {
        "workload": workload.name,
        "kind": workload.kind,
        "op": workload.op,
        "request": workload.request,
        "seed": args.seed,
        "scale": args.scale,
        "versions": stamp,
        **setup,
        "ops": ops,
        "failed": failed,
        "delivered": delivered,
        "outcomes": outcomes,
        "counts": counts,
        "blocks": blocks,
        "block_wall_s": block_wall,
        "phase_wall_s": phase_wall,
        "latency": typed_percentiles(rec.latencies_s, rec),
        "service": typed_percentiles(rec.service_s, rec),
        "latency_normalised": typed_percentiles(normalised(rec.latencies_s, True), rec),
        "service_normalised": typed_percentiles(normalised(rec.service_s, False), rec),
        "cpu_s": cpu_s,
        "children_cpu_s": _children_cpu_s() - kids0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": reference.summary(),
        "outputs_sha256": digest,
        "checks": checks,
    }
    if tracer is not None:
        tracer.detach()
        traced_blocks = [b for b in blocks if b["traced"]]
        out["trace"] = tracer.fold(sum(b["wall_s"] for b in traced_blocks))
        out["trace"]["ops"] = sum(b["ops"] for b in traced_blocks)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's perf_counter() just before starting this process")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.probe:
        result = versions()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
