"""Fig. 10 — detection accuracy of silence symbols.

(a) FFT-magnitude snapshot of one OFDM symbol with silences on eight
contiguous control subcarriers (the paper's [10..17]); inactive
subcarriers are visibly at the noise floor.
(b) False-positive/false-negative trade-off vs detection threshold at a
fixed SNR (too high a threshold misreads deep fades as silence; too low
misses real silences).
(c) Both probabilities vs measured SNR with the adaptive (pilot-aided)
threshold: FN stays below 0.01 everywhere; FP is near zero above ~10 dB
and grows only at very low SNR.
(d) FN vs SNR under strong pulse interference: bursts landing on silence
symbols raise their energy above threshold, so FN explodes — the one
scenario CoS does not handle (the paper defers it to MAC coordination).

Engine trials are per *packet*: each packet draws its silences (and its
interferer, for (d)) from the trial's own ``SeedSequence`` stream, so
packets are independent and the sweeps parallelise freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import engine
from repro.channel import PulseInterferer
from repro.cos.energy import EnergyDetector
from repro.cos.silence import SilencePlanner
from repro.experiments.common import (
    Claim,
    ExperimentConfig,
    check,
    check_all,
    init_phy_worker,
    phy_pair,
    print_table,
)
from repro.phy import RATE_TABLE, build_mpdu
from repro.phy.modulation import get_modulation

__all__ = [
    "SnapshotResult",
    "ThresholdSweepResult",
    "AccuracyResult",
    "run_snapshot",
    "run_threshold_sweep",
    "run_accuracy_vs_snr",
    "run_interference",
    "print_result",
    "Fig10Result",
    "run",
    "claims",
]

CONTROL_SUBCARRIERS = tuple(range(9, 17))  # paper's subcarriers 10..17 (1-based)


def _one_packet_with_silences(
    config: ExperimentConfig,
    snr_db: float,
    rate_mbps: int,
    rng: np.random.Generator,
    seed_offset: int = 0,
    interferer: Optional[PulseInterferer] = None,
):
    """Transmit one packet with random silences on the fixed control set."""
    channel = config.channel(snr_db, seed_offset=seed_offset, interferer=interferer)
    rate = RATE_TABLE[rate_mbps]
    tx, rx = phy_pair()
    psdu = build_mpdu(config.payload)
    planner = SilencePlanner(CONTROL_SUBCARRIERS)
    n_symbols = rate.n_symbols_for(len(psdu))
    bits = rng.integers(0, 2, size=4 * max(n_symbols // 2, 4), dtype=np.uint8)
    plan = planner.plan(bits, n_symbols)
    frame = tx.transmit(psdu, rate, silence_mask=plan.mask)
    obs = rx.observe(channel.transmit(frame.waveform))
    return frame, obs, channel


# ---------------------------------------------------------------------------
# (a) snapshot
# ---------------------------------------------------------------------------


@dataclass
class SnapshotResult:
    magnitudes: np.ndarray  # relative FFT magnitude per used subcarrier (52)
    silent_data_subcarriers: List[int] = field(default_factory=list)

    def contrast_db(self) -> float:
        """Active-vs-silent median magnitude ratio on the control set."""
        silent = [m for k, m in enumerate(self.magnitudes[:48]) if k in self.silent_data_subcarriers]
        active = [
            m
            for k, m in enumerate(self.magnitudes[:48])
            if k in CONTROL_SUBCARRIERS and k not in self.silent_data_subcarriers
        ]
        if not silent or not active:
            return 0.0
        return float(20 * np.log10(np.median(active) / max(np.median(silent), 1e-12)))


def run_snapshot(
    config: Optional[ExperimentConfig] = None, snr_db: float = 15.0
) -> SnapshotResult:
    """Fig. 10(a): magnitudes of one OFDM symbol carrying silences."""
    config = config or ExperimentConfig()
    rng = np.random.default_rng(config.seed)
    frame, obs, _ = _one_packet_with_silences(config, snr_db, 24, rng)
    # Find a data symbol containing at least two silences.
    counts = frame.silence_mask.sum(axis=1)
    idx = int(np.argmax(counts))
    data_mags = np.abs(obs.raw_data_grid[idx])
    pilot_mags = np.full(4, np.abs(obs.h_data).mean())
    mags = np.concatenate([data_mags, pilot_mags])
    mags = mags / mags.max()
    silent = [int(k) for k in np.nonzero(frame.silence_mask[idx])[0]]
    return SnapshotResult(magnitudes=mags, silent_data_subcarriers=silent)


# ---------------------------------------------------------------------------
# (b) threshold sweep
# ---------------------------------------------------------------------------


@dataclass
class ThresholdSweepResult:
    thresholds_db: np.ndarray  # relative to the true noise floor
    false_positive: np.ndarray
    false_negative: np.ndarray


def _threshold_trial(spec: engine.TrialSpec) -> Optional[Tuple[List[float], List[float]]]:
    """One packet's FP/FN at every candidate threshold (None if unheard)."""
    config: ExperimentConfig = spec["config"]
    detector = EnergyDetector(adaptive=False)
    frame, obs, _ = _one_packet_with_silences(
        config, spec["snr_db"], 12, spec.rng(), seed_offset=spec["packet"]
    )
    if obs is None:
        return None
    n_sym = frame.n_data_symbols
    fps, fns = [], []
    for t_db in spec["thresholds_db"]:
        threshold = obs.noise_var * 10.0 ** (t_db / 10.0)
        report = detector.detect(
            obs.raw_data_grid[:n_sym],
            CONTROL_SUBCARRIERS,
            obs.noise_var,
            threshold=threshold,
        )
        fp, fn = EnergyDetector.confusion(
            report.mask, frame.silence_mask, CONTROL_SUBCARRIERS
        )
        fps.append(fp)
        fns.append(fn)
    return fps, fns


def run_threshold_sweep(
    config: Optional[ExperimentConfig] = None,
    snr_db: float = 9.2,
    n_packets: int = 100,
    thresholds_db: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
) -> ThresholdSweepResult:
    """Fig. 10(b): FP/FN vs the (fixed, global) detection threshold."""
    config = config or ExperimentConfig()
    if thresholds_db is None:
        thresholds_db = np.arange(-6.0, 22.0, 2.0)

    params = [
        {
            "config": config,
            "snr_db": snr_db,
            "packet": i,
            "thresholds_db": tuple(float(t) for t in thresholds_db),
        }
        for i in range(n_packets)
    ]
    outcomes = engine.run_sweep(
        params, _threshold_trial, seed=config.seed + 1, workers=workers,
        init=init_phy_worker, label="fig10.threshold",
    )
    fps = [o[0] for o in outcomes if o is not None]
    fns = [o[1] for o in outcomes if o is not None]
    return ThresholdSweepResult(
        thresholds_db=np.asarray(thresholds_db, dtype=np.float64),
        false_positive=np.mean(fps, axis=0),
        false_negative=np.mean(fns, axis=0),
    )


# ---------------------------------------------------------------------------
# (c) / (d) accuracy vs SNR
# ---------------------------------------------------------------------------


@dataclass
class AccuracyResult:
    snrs_db: np.ndarray
    false_positive: np.ndarray
    false_negative: np.ndarray
    interference: bool = False


def _accuracy_trial(spec: engine.TrialSpec):
    """One packet's (FP, FN) under the adaptive threshold.

    Returns ``(fp, fn)``; either entry may be ``None`` when that packet
    contributes no sample (e.g. interference broke the SIGNAL field and
    the packet carried no silences).
    """
    config: ExperimentConfig = spec["config"]
    detector = EnergyDetector()
    modulation = get_modulation("qpsk")
    power = spec["interferer_power"]
    interferer = (
        PulseInterferer(
            pulse_power=power, symbol_probability=0.25, rng=spec.child_rng(1)
        )
        if power is not None
        else None
    )
    frame, obs, _ = _one_packet_with_silences(
        config, spec["snr_db"], 12, spec.rng(),
        seed_offset=100 + spec["packet"], interferer=interferer,
    )
    n_sym = frame.n_data_symbols
    if obs is None or obs.raw_data_grid.shape[0] < n_sym:
        # Interference broke even the SIGNAL field: the receiver
        # obtains neither data nor control — every silence missed.
        if frame.silence_mask.any():
            return None, 1.0
        return None, None
    report = detector.detect(
        obs.raw_data_grid[:n_sym],
        CONTROL_SUBCARRIERS,
        obs.noise_var,
        h_gains=np.abs(obs.h_data) ** 2,
        min_symbol_energy=modulation.min_symbol_energy,
    )
    fp, fn = EnergyDetector.confusion(
        report.mask, frame.silence_mask, CONTROL_SUBCARRIERS
    )
    return fp, fn


def _accuracy_vs_snr(
    config: ExperimentConfig,
    snrs_db: np.ndarray,
    n_packets: int,
    interferer_power: Optional[float],
    workers: Optional[int] = None,
) -> AccuracyResult:
    params = [
        {
            "config": config,
            "snr_db": float(snr),
            "packet": i,
            "interferer_power": interferer_power,
        }
        for snr in snrs_db
        for i in range(n_packets)
    ]
    label = "fig10.interference" if interferer_power is not None else "fig10.accuracy"
    outcomes = engine.run_sweep(
        params, _accuracy_trial, seed=config.seed + 2, workers=workers,
        init=init_phy_worker, label=label,
    )
    fps, fns = [], []
    for s in range(len(snrs_db)):
        chunk = outcomes[s * n_packets : (s + 1) * n_packets]
        fp_list = [fp for fp, _ in chunk if fp is not None]
        fn_list = [fn for _, fn in chunk if fn is not None]
        fps.append(np.mean(fp_list) if fp_list else float("nan"))
        fns.append(np.mean(fn_list) if fn_list else float("nan"))
    return AccuracyResult(
        snrs_db=np.asarray(snrs_db, dtype=np.float64),
        false_positive=np.array(fps),
        false_negative=np.array(fns),
        interference=interferer_power is not None,
    )


def run_accuracy_vs_snr(
    config: Optional[ExperimentConfig] = None,
    snrs_db: Optional[np.ndarray] = None,
    n_packets: int = 100,
    workers: Optional[int] = None,
) -> AccuracyResult:
    """Fig. 10(c): FP/FN vs SNR with the adaptive threshold."""
    config = config or ExperimentConfig()
    if snrs_db is None:
        snrs_db = np.array([3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0])
    return _accuracy_vs_snr(config, snrs_db, n_packets, interferer_power=None,
                            workers=workers)


def run_interference(
    config: Optional[ExperimentConfig] = None,
    snrs_db: Optional[np.ndarray] = None,
    n_packets: int = 100,
    pulse_power: float = 20.0,
    workers: Optional[int] = None,
) -> AccuracyResult:
    """Fig. 10(d): FN vs SNR under strong pulse interference."""
    config = config or ExperimentConfig()
    if snrs_db is None:
        snrs_db = np.array([3.0, 6.0, 10.0, 14.0, 18.0, 20.0])
    return _accuracy_vs_snr(config, snrs_db, n_packets, interferer_power=pulse_power,
                            workers=workers)


# ---------------------------------------------------------------------------
# Combined runner
# ---------------------------------------------------------------------------


@dataclass
class Fig10Result:
    snapshot: SnapshotResult
    threshold_sweep: ThresholdSweepResult
    accuracy: AccuracyResult
    interference: AccuracyResult


def run(config: Optional[ExperimentConfig] = None,
        workers: Optional[int] = None) -> Fig10Result:
    config = config or ExperimentConfig()
    return Fig10Result(
        snapshot=run_snapshot(config),
        threshold_sweep=run_threshold_sweep(config, workers=workers),
        accuracy=run_accuracy_vs_snr(config, workers=workers),
        interference=run_interference(config, workers=workers),
    )


def print_result(result: Fig10Result) -> None:
    snap = result.snapshot
    print("\n== Fig. 10(a) — FFT magnitude snapshot ==")
    print(f"silent data subcarriers (0-based): {snap.silent_data_subcarriers}")
    print(f"active/silent contrast: {snap.contrast_db():.1f} dB")

    sweep = result.threshold_sweep
    print_table(
        ["threshold dB(rel floor)", "false positive", "false negative"],
        list(zip(sweep.thresholds_db, sweep.false_positive, sweep.false_negative)),
        title="Fig. 10(b) — threshold trade-off at 9.2 dB",
    )

    acc = result.accuracy
    print_table(
        ["measured dB", "false positive", "false negative"],
        list(zip(acc.snrs_db, acc.false_positive, acc.false_negative)),
        title="Fig. 10(c) — adaptive threshold accuracy vs SNR",
    )

    intf = result.interference
    print_table(
        ["measured dB", "FN (interference)", "FN (clean)"],
        list(zip(intf.snrs_db, intf.false_negative, _clean_fn(result))),
        title="Fig. 10(d) — impact of strong pulse interference",
    )


def _clean_fn(result: Fig10Result) -> List[float]:
    """The (c) sweep's FN at each (d) SNR: Fig. 10(d)'s clean column."""
    acc = result.accuracy
    return [float(np.interp(s, acc.snrs_db, acc.false_negative))
            for s in result.interference.snrs_db]


def claims(result: Fig10Result) -> List[Claim]:
    """Silences stand out; the fixed threshold trades FN for FP; the
    adaptive one keeps FN low everywhere and FP low in the working
    region; strong pulse interference breaks detection."""
    sweep, acc = result.threshold_sweep, result.accuracy
    working = acc.snrs_db >= 14.0
    low = acc.snrs_db <= 5.0
    fp_working_max = np.max(acc.false_positive[working], initial=-np.inf)
    mean_clean = np.mean(_clean_fn(result))
    return [
        check("snapshot_contrast_db", result.snapshot.contrast_db(), ">", 6.0),
        check("low_threshold_fn", sweep.false_negative[0], ">", 0.3),
        check("high_threshold_fn", sweep.false_negative[-1], "<", 0.02),
        check("high_threshold_fp", sweep.false_positive[-1], ">", 0.3),
        check("low_threshold_fp", sweep.false_positive[0], "<", 0.02),
        check_all("adaptive_fn", "<=", [
            (f"{s:g} dB", fn, 0.02) for s, fn in zip(acc.snrs_db, acc.false_negative)
        ]),
        check_all("adaptive_fp_working", "<=", [
            (f"{s:g} dB", fp, 0.05)
            for s, fp in zip(acc.snrs_db[working], acc.false_positive[working])
        ]),
        check_all("adaptive_fp_low_snr", ">=", [
            (f"{s:g} dB", fp, fp_working_max)
            for s, fp in zip(acc.snrs_db[low], acc.false_positive[low])
        ]),
        check("interference_fn", np.mean(result.interference.false_negative), ">",
              5 * max(mean_clean, 1e-3)),
    ]


if __name__ == "__main__":
    print_result(run())
