"""Ablation benchmark — decoder fidelity and the absolute Rm scale.

EXPERIMENTS.md attributes our higher-than-paper Rm ceilings (Fig. 9) to
the decoder: we use CSI-weighted soft-decision EVD, while Sora's SoftWiFi
generation decoded hard and CSI-blind.  This benchmark tests that
attribution directly: under identical heavy silence insertion, the
hard-decision receiver loses packets the soft receiver keeps — i.e. at
the paper's PRR target the hard decoder sustains a smaller silence budget
(an Rm closer to the paper's absolute scale).
"""

import numpy as np

from conftest import run_once
from repro.cos.link import CosLink
from repro.experiments.common import ExperimentConfig, print_table
from repro.experiments.fig9 import _FixedBudgetController
from repro.phy.receiver import Receiver


def _prr(decision: str, snr_db: float, groups: int, n_packets: int) -> float:
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


def test_decoder_fidelity_ablation(benchmark):
    n_packets = 90

    def compare():
        rows = []
        for snr_db in (14.0, 16.0):
            for groups in (0, 60, 120):
                rows.append(
                    (
                        snr_db,
                        groups,
                        _prr("soft", snr_db, groups, n_packets),
                        _prr("hard", snr_db, groups, n_packets),
                    )
                )
        return rows

    rows = run_once(benchmark, compare)
    print_table(
        ["measured dB", "groups/packet", "PRR soft EVD", "PRR hard"],
        rows,
        title="Ablation — decoder fidelity under silence insertion (24 Mbps)",
    )
    # Soft EVD never loses to hard decoding, and somewhere in the band the
    # hard decoder drops below the paper's 99.3 % target while soft holds.
    for _, _, soft, hard in rows:
        assert soft >= hard - 1e-9
    soft_holds = all(soft >= 0.99 for _, g, soft, _ in rows if g > 0)
    hard_breaks = any(hard < 0.99 for _, g, _, hard in rows if g > 0)
    assert soft_holds and hard_breaks
    benchmark.extra_info["worst_hard_prr"] = min(r[3] for r in rows)
