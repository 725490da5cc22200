"""Ablation benchmark — interval coding vs bitmap coding.

Why does the paper encode bits in the *gaps between* silences instead of
a plain silence bitmap?  Because silences consume the channel code's
correction budget: at a fixed control bit-rate, intervals spend ~1/k
silences per bit against the bitmap's ~1/2, so the data plane keeps a
~4x larger erasure margin at k = 4.  This bench measures the data PRR of
both schemes carrying identical control payloads.
"""

import numpy as np

from conftest import run_once
from repro.cos.bitmap_coding import BitmapPlanner
from repro.cos.silence import SilencePlanner
from repro.experiments.common import ExperimentConfig, print_table
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu


def _prr(scheme: str, bits_per_packet: int, snr_db: float, n_packets: int) -> tuple:
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


def test_coding_scheme_ablation(benchmark):
    n_packets = 100
    snr_db = 9.7  # just inside the 18 Mbps band

    def sweep():
        rows = []
        for bits in (128, 256, 448):
            prr_i, sil_i = _prr("interval", bits, snr_db, n_packets)
            prr_b, sil_b = _prr("bitmap", bits, snr_db, n_packets)
            rows.append((bits, sil_i, prr_i, sil_b, prr_b))
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        ["ctrl bits/packet", "silences (interval)", "PRR (interval)",
         "silences (bitmap)", "PRR (bitmap)"],
        rows,
        title="Ablation — interval vs bitmap silence coding (18 Mbps, 9.7 dB)",
    )
    for bits, sil_i, prr_i, sil_b, prr_b in rows:
        assert sil_i < sil_b  # intervals always spend fewer silences
        assert prr_i >= prr_b - 0.05  # and never pay more data PRR
    # At the heaviest load the budget gap must show up in PRR.
    assert rows[-1][2] > rows[-1][4]
    benchmark.extra_info["prr_interval_heavy"] = rows[-1][2]
    benchmark.extra_info["prr_bitmap_heavy"] = rows[-1][4]
