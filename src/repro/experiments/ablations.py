"""Ablation studies for the design choices the paper argues for.

1. **Placement** (§II-D): silences on the *weak* subcarriers overlap with
   symbols that would have been corrupted anyway, so at a fixed insertion
   rate the data PRR is at least as high as with random or strong-
   subcarrier placement — equivalently, weak placement sustains a higher
   Rm.
2. **EVD vs error-only decoding** (§III-E): zeroing the bit metrics of
   detected silences (erasures) beats letting the demapper treat the
   noise-only observation as signal (errors).
3. **Interval vs bitmap coding** (§II-A): silences consume the channel
   code's correction budget; at a fixed control bit-rate intervals spend
   ~1/k silences per bit against the bitmap's ~1/2, so the data plane
   keeps a larger erasure margin.
4. **Decoder fidelity**: under identical heavy silence insertion the
   hard-decision, CSI-blind receiver (Sora's SoftWiFi generation) loses
   packets the CSI-weighted soft EVD keeps — the cause of our higher
   than paper Rm scale (Fig. 9).
5. **Likelihood-ratio vs energy detection** (extension): the exact
   Neyman–Pearson test between silence and the active mixture never
   loses to the paper's noise-floor threshold on cell misclassification.
6. **Codec k** (why k = 4): larger k spends fewer silences per bit
   (1/k) but lengthens the maximum interval (2^k − 1), so fewer groups
   fit a packet and one detection error wipes more bits.
7. **Flashback-style baseline** (§V): intended interference faces a
   detect/harm dilemma — detectable flashes kill their packets, gentle
   ones are undetectable — where CoS keeps the data plane at zero extra
   energy.

The stage (:func:`run`) runs all seven; studies 3–7 are serial loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import engine
from repro.channel import IndoorChannel
from repro.cos import CosLink, IntervalCodec
from repro.cos.bitmap_coding import BitmapPlanner
from repro.cos.energy import EnergyDetector
from repro.cos.flashback import FlashbackDetector, FlashbackTransmitter
from repro.cos.ml_detection import MlSilenceDetector
from repro.cos.silence import SilencePlanner
from repro.experiments.common import (
    Claim,
    ExperimentConfig,
    check,
    check_all,
    init_phy_worker,
    print_table,
    send_probe_packets,
)
from repro.experiments.fig9 import _FixedBudgetController
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu
from repro.phy.modulation import get_modulation
from repro.phy.params import N_DATA_SUBCARRIERS

__all__ = [
    "PlacementResult",
    "run_placement",
    "EvdResult",
    "run_evd",
    "print_placement",
    "print_evd",
    "run_coding",
    "run_decoder_fidelity",
    "run_detector",
    "run_k",
    "run_flashback",
    "AblationsResult",
    "run",
    "print_result",
    "claims",
]


def _subcarrier_order(channel, strategy: str, rng: np.random.Generator) -> np.ndarray:
    gains = channel.data_subcarrier_snrs()
    if strategy == "weak":
        return np.argsort(gains)  # weakest first
    if strategy == "strong":
        return np.argsort(gains)[::-1]
    if strategy == "random":
        return rng.permutation(N_DATA_SUBCARRIERS)
    raise ValueError(f"unknown strategy {strategy!r}")


def _trial(spec: engine.TrialSpec) -> float:
    """One grid cell: PRR with ``groups`` interval groups on the 16
    subcarriers ``strategy`` picks.

    Detection is bypassed (the true silence mask is used, or no erasures
    for error-only decoding) so the ablation isolates the *decoding*
    cost of placement, not detector behaviour.
    """
    config: ExperimentConfig = spec["config"]
    rate = RATE_TABLE[spec["rate_mbps"]]
    n_symbols = rate.n_symbols_for(len(config.payload) + 4)  # + FCS
    rng = np.random.default_rng(config.seed + 13)

    def silence(channel) -> np.ndarray:
        order = _subcarrier_order(channel, spec["strategy"], rng)
        planner = SilencePlanner(sorted(int(c) for c in order[:16]))
        bits = rng.integers(0, 2, size=4 * spec["groups"], dtype=np.uint8)
        return planner.plan(bits, n_symbols).mask

    results = send_probe_packets(
        config.channel(spec["snr_db"]), rate, spec["n_packets"],
        payload=config.payload, silence=silence,
        erasures="true" if spec["use_erasures"] else "none",
    )
    return sum(result.ok for _, result in results) / spec["n_packets"]


@dataclass
class PlacementResult:
    """PRR by placement strategy at increasing insertion rates."""

    groups_grid: List[int] = field(default_factory=list)
    prr: Dict[str, List[float]] = field(default_factory=dict)

    def weak_dominates(self) -> bool:
        """Weak placement should never lose badly to the alternatives."""
        weak = np.array(self.prr["weak"])
        return all(
            np.all(weak >= np.array(self.prr[s]) - 0.05)
            for s in self.prr
            if s != "weak"
        )


def _default_groups_grid(config: ExperimentConfig, rate_mbps: int) -> List[int]:
    rate = RATE_TABLE[rate_mbps]
    n_symbols = rate.n_symbols_for(len(config.payload) + 4)
    cap = int(16 * n_symbols / 8.5)
    return [max(cap // 4, 1), max(cap // 2, 2), max(3 * cap // 4, 3),
            max(int(0.95 * cap), 4)]


def run_placement(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 9.6,
    rate_mbps: int = 18,
    n_packets: int = 120,
    groups_grid: Optional[Sequence[int]] = None,
    workers: int = 0,
) -> PlacementResult:
    config = config or ExperimentConfig()
    if groups_grid is None:
        groups_grid = _default_groups_grid(config, rate_mbps)

    strategies = ("weak", "random", "strong")
    params = [
        {
            "config": config,
            "snr_db": snr_db,
            "rate_mbps": rate_mbps,
            "groups": g,
            "strategy": strategy,
            "n_packets": n_packets,
            "use_erasures": True,
        }
        for strategy in strategies
        for g in groups_grid
    ]
    prrs = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="ablation.placement",
    )

    result = PlacementResult(groups_grid=list(groups_grid))
    for s, strategy in enumerate(strategies):
        result.prr[strategy] = prrs[s * len(groups_grid) : (s + 1) * len(groups_grid)]
    return result


@dataclass
class EvdResult:
    """PRR with erasure decoding vs error-only decoding."""

    groups_grid: List[int] = field(default_factory=list)
    prr_evd: List[float] = field(default_factory=list)
    prr_error_only: List[float] = field(default_factory=list)

    def evd_dominates(self) -> bool:
        return all(e >= o - 0.05 for e, o in zip(self.prr_evd, self.prr_error_only))


def run_evd(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 9.6,
    rate_mbps: int = 18,
    n_packets: int = 120,
    groups_grid: Optional[Sequence[int]] = None,
    workers: int = 0,
) -> EvdResult:
    config = config or ExperimentConfig()
    if groups_grid is None:
        groups_grid = _default_groups_grid(config, rate_mbps)

    params = [
        {
            "config": config,
            "snr_db": snr_db,
            "rate_mbps": rate_mbps,
            "groups": groups,
            "strategy": "weak",
            "n_packets": n_packets,
            "use_erasures": use_erasures,
        }
        for groups in groups_grid
        for use_erasures in (True, False)
    ]
    prrs = engine.run_sweep(
        params, _trial, seed=config.seed, workers=workers,
        init=init_phy_worker, label="ablation.evd",
    )

    result = EvdResult(groups_grid=list(groups_grid))
    for i in range(len(groups_grid)):
        result.prr_evd.append(prrs[2 * i])
        result.prr_error_only.append(prrs[2 * i + 1])
    return result


def print_placement(result: PlacementResult) -> None:
    rows = []
    for i, g in enumerate(result.groups_grid):
        rows.append(
            (g, result.prr["weak"][i], result.prr["random"][i], result.prr["strong"][i])
        )
    print_table(
        ["interval groups/packet", "PRR weak", "PRR random", "PRR strong"],
        rows,
        title="Ablation — silence placement strategy",
    )


def print_evd(result: EvdResult) -> None:
    rows = list(zip(result.groups_grid, result.prr_evd, result.prr_error_only))
    print_table(
        ["interval groups/packet", "PRR with EVD", "PRR error-only"],
        rows,
        title="Ablation — erasure vs error-only Viterbi decoding",
    )


# ---------------------------------------------------------------------------
# Interval vs bitmap coding
# ---------------------------------------------------------------------------


def _coding_prr(scheme: str, bits_per_packet: int, snr_db: float, n_packets: int) -> tuple:
    """(data PRR, mean silences/packet) of one coding scheme at one load."""
    config = ExperimentConfig()
    rate = RATE_TABLE[18]  # QPSK 3/4: thin code budget, silences hurt
    subcarriers = list(range(16))
    tx = Transmitter()
    rx = Receiver()
    psdu = build_mpdu(config.payload)
    n_symbols = rate.n_symbols_for(len(psdu))
    rng = np.random.default_rng(31)
    channel = config.channel(snr_db)

    ok = 0
    silences = []
    for _ in range(n_packets):
        bits = rng.integers(0, 2, bits_per_packet, dtype=np.uint8)
        if scheme == "interval":
            plan = SilencePlanner(subcarriers).plan(bits, n_symbols)
        else:
            plan = BitmapPlanner(subcarriers).plan(bits, n_symbols)
        frame = tx.transmit(psdu, rate, silence_mask=plan.mask)
        result = rx.receive(channel.transmit(frame.waveform), erasure_mask=plan.mask)
        ok += result.ok
        silences.append(plan.n_silences)
        channel.evolve(1e-3)
    return ok / n_packets, float(np.mean(silences))


def run_coding(n_packets: int = 100) -> List[tuple]:
    """Rows ``(ctrl bits, silences interval, PRR interval, silences
    bitmap, PRR bitmap)``: both schemes carry identical control payloads
    on QPSK-3/4."""
    snr_db = 9.7  # just inside the 18 Mbps band
    rows = []
    for bits in (128, 256, 448):
        prr_i, sil_i = _coding_prr("interval", bits, snr_db, n_packets)
        prr_b, sil_b = _coding_prr("bitmap", bits, snr_db, n_packets)
        rows.append((bits, sil_i, prr_i, sil_b, prr_b))
    return rows


def print_coding(rows: List[tuple]) -> None:
    print_table(
        ["ctrl bits/packet", "silences (interval)", "PRR (interval)",
         "silences (bitmap)", "PRR (bitmap)"],
        rows,
        title="Ablation — interval vs bitmap silence coding (18 Mbps, 9.7 dB)",
    )


# ---------------------------------------------------------------------------
# Decoder fidelity
# ---------------------------------------------------------------------------


def _decoder_prr(decision: str, snr_db: float, groups: int, n_packets: int) -> float:
    """Data PRR of a ``decision`` receiver at a fixed insertion, over three
    channel realizations."""
    config = ExperimentConfig()
    ok = 0
    total = 0
    for seed_offset in (0, 1009, 2017):
        channel = config.channel(snr_db, seed_offset=seed_offset)
        link = CosLink(channel=channel, controller=_FixedBudgetController(groups))
        link.rx._phy = Receiver(decision=decision)
        rng = np.random.default_rng(7 + seed_offset)
        for _ in range(max(n_packets // 3, 1)):
            bits = rng.integers(0, 2, size=4 * max(groups, 1), dtype=np.uint8)
            outcome = link.exchange(config.payload, bits[: 4 * groups])
            ok += outcome.data_ok
            total += 1
    return ok / total


def run_decoder_fidelity(n_packets: int = 90) -> List[tuple]:
    """Rows ``(measured dB, groups/packet, PRR soft EVD, PRR hard)`` at
    24 Mbps."""
    rows = []
    for snr_db in (14.0, 16.0):
        for groups in (0, 60, 120):
            rows.append(
                (
                    snr_db,
                    groups,
                    _decoder_prr("soft", snr_db, groups, n_packets),
                    _decoder_prr("hard", snr_db, groups, n_packets),
                )
            )
    return rows


def print_decoder_fidelity(rows: List[tuple]) -> None:
    print_table(
        ["measured dB", "groups/packet", "PRR soft EVD", "PRR hard"],
        rows,
        title="Ablation — decoder fidelity under silence insertion (24 Mbps)",
    )


# ---------------------------------------------------------------------------
# Likelihood-ratio vs energy detection
# ---------------------------------------------------------------------------


def _cell_error_rates(mod_name: str, rel_snr: float, n_sym: int):
    """(LR, energy) cell misclassification rates on a synthetic grid."""
    rng = np.random.default_rng(11)
    mod = get_modulation(mod_name)
    noise_var = 0.05
    gain = np.sqrt(rel_snr * noise_var / mod.min_symbol_energy)
    bits = rng.integers(0, 2, n_sym * 48 * mod.bits_per_symbol, dtype=np.uint8)
    symbols = mod.map_bits(bits).reshape(n_sym, 48)
    truth = rng.random((n_sym, 48)) < 0.12
    sent = np.where(truth, 0.0, symbols) * gain
    noise = np.sqrt(noise_var / 2) * (
        rng.standard_normal((n_sym, 48)) + 1j * rng.standard_normal((n_sym, 48))
    )
    grid = sent + noise
    h = np.full(48, gain, dtype=complex)

    ml = MlSilenceDetector().detect(grid, range(48), noise_var, h, mod)
    en = EnergyDetector().detect(
        grid, range(48), noise_var,
        h_gains=np.abs(h) ** 2, min_symbol_energy=mod.min_symbol_energy,
    )
    return float((ml.mask != truth).mean()), float((en.mask != truth).mean())


def run_detector(n_sym: int = 400) -> List[tuple]:
    """Rows ``(modulation, e_min*SNR, cell err LR, cell err energy)``."""
    rows = []
    for mod_name in ("qpsk", "16qam", "64qam"):
        for rel in (8.0, 12.0, 20.0, 40.0):
            err_ml, err_en = _cell_error_rates(mod_name, rel, n_sym)
            rows.append((mod_name, rel, err_ml, err_en))
    return rows


def print_detector(rows: List[tuple]) -> None:
    print_table(
        ["modulation", "e_min*SNR", "cell err (LR)", "cell err (energy)"],
        rows,
        title="Ablation — likelihood-ratio vs energy detection",
    )


# ---------------------------------------------------------------------------
# Interval codec k
# ---------------------------------------------------------------------------


def _k_session(k: int, n_packets: int) -> tuple:
    """(silences per delivered bit, mean group accuracy, bits delivered)."""
    channel = IndoorChannel.position("A", snr_db=15.0, seed=5)
    codec = IntervalCodec(k=k)
    link = CosLink(channel=channel, codec=codec)
    rng = np.random.default_rng(77)
    delivered = silences = 0
    group_acc = []
    link.exchange(bytes(400), [])  # feedback bootstrap
    for _ in range(n_packets):
        bits = rng.integers(0, 2, size=k * 8, dtype=np.uint8)
        outcome = link.exchange(bytes(400), bits)
        silences += outcome.n_silences
        group_acc.append(outcome.control_group_accuracy(k=k))
        if outcome.control_ok:
            delivered += outcome.control_sent.size
    per_bit = silences / max(delivered, 1)
    return per_bit, float(np.mean(group_acc)), delivered


def run_k(n_packets: int = 80) -> Dict[int, tuple]:
    """``{k: (silences per delivered bit, group accuracy, bits delivered)}``
    at the paper's running operating point (24 Mbps, 15 dB)."""
    return {k: _k_session(k, n_packets) for k in (2, 3, 4, 6)}


def print_k(result: Dict[int, tuple]) -> None:
    print_table(
        ["k (bits/interval)", "silences per delivered bit", "group accuracy", "bits delivered"],
        [(k, *v) for k, v in sorted(result.items())],
        title="Ablation — interval codec k at (24 Mbps, 15 dB)",
    )


# ---------------------------------------------------------------------------
# Flashback-style baseline
# ---------------------------------------------------------------------------


def _flashback_session(flash_power: float, n_packets: int) -> tuple:
    """(data PRR, control accuracy, extra energy/packet) of flashes."""
    channel = IndoorChannel.position("B", snr_db=15.0, seed=5)
    phy_tx, phy_rx = Transmitter(), Receiver()
    flash_tx = FlashbackTransmitter(flash_power=flash_power, rng=9)
    detector = FlashbackDetector()
    psdu = build_mpdu(bytes(400))
    rate = RATE_TABLE[24]
    rng = np.random.default_rng(5)

    prr = ctrl_ok = 0
    energy = 0.0
    for _ in range(n_packets):
        bits = rng.integers(0, 2, 16, dtype=np.uint8)
        frame = phy_tx.transmit(psdu, rate)
        plan = flash_tx.plan(bits, frame.n_data_symbols)
        received = channel.transmit(flash_tx.apply(frame.waveform, plan))
        prr += phy_rx.receive(received).ok
        try:
            recovered = detector.recover_bits(received, frame.n_data_symbols)
            ctrl_ok += np.array_equal(recovered, plan.embedded_bits)
        except ValueError:
            pass
        energy += flash_tx.energy_cost(plan)
        channel.evolve(1e-3)
    return prr / n_packets, ctrl_ok / n_packets, energy / n_packets


def _cos_session(n_packets: int) -> tuple:
    """The same three numbers for CoS silences."""
    channel = IndoorChannel.position("B", snr_db=15.0, seed=5)
    link = CosLink(channel=channel)
    rng = np.random.default_rng(5)
    link.exchange(bytes(400), [])
    prr = ctrl_ok = 0
    for _ in range(n_packets):
        bits = rng.integers(0, 2, 16, dtype=np.uint8)
        outcome = link.exchange(bytes(400), bits)
        prr += outcome.data_ok
        ctrl_ok += outcome.control_ok
    return prr / n_packets, ctrl_ok / n_packets, 0.0


def run_flashback(n_packets: int = 100) -> List[tuple]:
    """Rows ``(scheme, data PRR, control accuracy, extra energy/packet)``
    for CoS, a detectable 64x flash and a gentle 8x flash, all carrying
    16 control bits per packet (24 Mbps, 15 dB)."""
    rows = [("CoS (silences)", *_cos_session(n_packets))]
    for power, label in ((64.0, "flash 64x (detectable)"), (8.0, "flash 8x (gentle)")):
        rows.append((label, *_flashback_session(power, n_packets)))
    return rows


def print_flashback(rows: List[tuple]) -> None:
    print_table(
        ["scheme", "data PRR", "control accuracy", "extra energy/packet"],
        rows,
        title="Baseline — CoS vs intended-interference control (24 Mbps, 15 dB)",
    )


# ---------------------------------------------------------------------------
# The stage
# ---------------------------------------------------------------------------


@dataclass
class AblationsResult:
    """Every study of the ``ablations`` stage."""

    placement: PlacementResult
    evd: EvdResult
    coding: List[tuple]
    decoder_fidelity: List[tuple]
    detector: List[tuple]
    k: Dict[int, tuple]
    flashback: List[tuple]


def run(workers: int = 0) -> AblationsResult:
    """Run every study at its paper-scale budget (``workers`` drives the
    placement and EVD sweeps; the other studies are serial loops)."""
    return AblationsResult(
        placement=run_placement(workers=workers),
        evd=run_evd(workers=workers),
        coding=run_coding(),
        decoder_fidelity=run_decoder_fidelity(),
        detector=run_detector(),
        k=run_k(),
        flashback=run_flashback(),
    )


def print_result(result: AblationsResult) -> None:
    print_placement(result.placement)
    print_evd(result.evd)
    print_coding(result.coding)
    print_decoder_fidelity(result.decoder_fidelity)
    print_detector(result.detector)
    print_k(result.k)
    print_flashback(result.flashback)


def claims(result: AblationsResult) -> List[Claim]:
    """Each study's verdicts, prefixed by its study."""
    weak = result.placement.prr["weak"]
    placement_cases = [
        (f"{g} groups vs {s}", w, other[i] - 0.05)
        for s, other in result.placement.prr.items() if s != "weak"
        for i, (g, w) in enumerate(zip(result.placement.groups_grid, weak))
    ]
    evd = result.evd
    coding = result.coding
    decoder = [(f"{snr:g} dB, {groups} groups", groups, soft, hard)
               for snr, groups, soft, hard in result.decoder_fidelity]
    loaded = [row for row in decoder if row[1] > 0]
    hard_lo = min(loaded, key=lambda row: row[3])
    k = result.k
    cos, strong, gentle = result.flashback
    return [
        check_all("placement_weak_dominates", ">=", placement_cases),
        check("placement_weak_mean_over_strong", float(np.mean(weak)), ">=",
              float(np.mean(result.placement.prr["strong"]))),
        check_all("evd_dominates", ">=", [
            (f"{g} groups", e, o - 0.05)
            for g, e, o in zip(evd.groups_grid, evd.prr_evd, evd.prr_error_only)
        ]),
        check("evd_mean_over_error_only", float(np.mean(evd.prr_evd)), ">=",
              float(np.mean(evd.prr_error_only))),
        check_all("coding_fewer_silences", "<", [
            (f"{bits} bits", sil_i, sil_b) for bits, sil_i, _, sil_b, _ in coding
        ]),
        check_all("coding_prr_kept", ">=", [
            (f"{bits} bits", prr_i, prr_b - 0.05) for bits, _, prr_i, _, prr_b in coding
        ]),
        check("coding_heavy_prr_gap", coding[-1][2], ">", coding[-1][4],
              f"{coding[-1][0]} bits"),
        check_all("decoder_soft_never_below_hard", ">=", [
            (at, soft, hard - 1e-9) for at, _, soft, hard in decoder
        ]),
        check_all("decoder_soft_holds", ">=", [(at, soft, 0.99) for at, _, soft, _ in loaded]),
        check("decoder_hard_breaks", hard_lo[3], "<", 0.99, hard_lo[0]),
        check_all("detector_lr_never_loses", "<=", [
            (f"{mod}, e_min*SNR {rel:g}", err_ml, err_en + 2e-3)
            for mod, rel, err_ml, err_en in result.detector
        ]),
        check("k_silences_per_bit_2_over_4", k[2][0], ">", k[4][0]),
        check_all("k_delivers", ">", [(f"k={n}", v[2], 0) for n, v in k.items()]),
        check_all("k_accuracy", ">", [(f"k={n}", v[1], 0.5) for n, v in k.items()]),
        check("flashback_cos_prr", cos[1], ">=", 0.95),
        check("flashback_strong_prr", strong[1], "<", 0.3),
        check("flashback_gentle_control", gentle[2], "<", 0.5),
        check("flashback_cos_energy", cos[3], "==", 0.0),
        check("flashback_strong_energy", strong[3], ">", 0.0),
    ]


if __name__ == "__main__":
    print_result(run())
