"""Baseline benchmark — CoS vs Flashback-style intended interference.

The §V comparison, quantified: at the same control payload per packet,
CoS keeps the data PRR at target with zero extra energy, while the
interference baseline faces the detect/harm dilemma — detectable flashes
kill their packets, gentle flashes are undetectable.
"""

import numpy as np

from conftest import run_once
from repro.channel import IndoorChannel
from repro.cos import CosLink
from repro.cos.flashback import FlashbackDetector, FlashbackTransmitter
from repro.experiments.common import print_table
from repro.phy import RATE_TABLE, Receiver, Transmitter, build_mpdu


def _flashback_session(flash_power: float, n_packets: int) -> tuple:
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


def test_flashback_baseline(benchmark):
    n_packets = 100

    def compare():
        rows = [("CoS (silences)", *_cos_session(n_packets))]
        for power, label in ((64.0, "flash 64x (detectable)"), (8.0, "flash 8x (gentle)")):
            rows.append((label, *_flashback_session(power, n_packets)))
        return rows

    rows = run_once(benchmark, compare)
    print_table(
        ["scheme", "data PRR", "control accuracy", "extra energy/packet"],
        rows,
        title="Baseline — CoS vs intended-interference control (24 Mbps, 15 dB)",
    )
    cos, strong, gentle = rows
    assert cos[1] >= 0.95  # CoS keeps the data plane
    assert strong[1] < 0.3  # detectable flashes kill their packets
    assert gentle[2] < 0.5  # gentle flashes cannot carry control reliably
    assert cos[3] == 0.0 and strong[3] > 0.0
    benchmark.extra_info["cos_prr"] = cos[1]
    benchmark.extra_info["flash64_prr"] = strong[1]
    benchmark.extra_info["flash8_ctrl"] = gentle[2]
