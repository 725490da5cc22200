"""Ablation benchmark — the interval codec's k (bits per interval).

The paper fixes k = 4.  The trade-off behind that number:

* larger k → fewer silences per bit (1/k) → less code budget consumed,
  but longer maximum intervals (2^k − 1) → fewer groups fit a packet's
  control stream, and a single detection error wipes more bits;
* smaller k → denser silences → tighter interval framing but a heavier
  erasure load per delivered bit.

This bench measures, per k, the silences spent per delivered control bit
and the end-to-end message accuracy at the paper's running operating
point (24 Mbps, 15 dB).
"""

import numpy as np

from conftest import run_once
from repro.channel import IndoorChannel
from repro.cos import CosLink, IntervalCodec
from repro.experiments.common import print_table


def _session(k: int, n_packets: int) -> tuple:
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


def test_k_ablation(benchmark):
    n_packets = 80

    def sweep():
        return {k: _session(k, n_packets) for k in (2, 3, 4, 6)}

    result = run_once(benchmark, sweep)
    print_table(
        ["k (bits/interval)", "silences per delivered bit", "group accuracy", "bits delivered"],
        [(k, *v) for k, v in sorted(result.items())],
        title="Ablation — interval codec k at (24 Mbps, 15 dB)",
    )
    # Larger k amortises silences over more bits.
    per_bit = {k: v[0] for k, v in result.items()}
    assert per_bit[2] > per_bit[4]
    # Every k delivers; accuracy stays usable across the sweep.
    for k, (_, acc, delivered) in result.items():
        assert delivered > 0, f"k={k} delivered nothing"
        assert acc > 0.5, f"k={k} accuracy collapsed"
    benchmark.extra_info.update({f"silences_per_bit_k{k}": v[0] for k, v in result.items()})
