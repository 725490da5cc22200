"""Golden outputs of the receive chain on fixed seeded waveforms.

``tests/data/receiver_golden.json`` records what the per-packet scalar
receiver returned for every 802.11a rate, both decision modes, and two
operating points (14 dB clean; 8 dB with an 8 % erasure mask), three
packets each.  The file was made at commit aa603727, the last commit
with the scalar receive path, and is stamped with that hash; to
regenerate it, check out that commit and record ``Receiver.receive`` on
the cases built by ``_cases`` below.
Both ``Receiver.receive`` and ``Receiver.receive_many`` must reproduce
it: discrete outputs (SIGNAL rate/length, pre-Viterbi hard bits, CRC
outcome, PSDU of CRC-passing packets) exactly, float summaries
(``noise_var``, sum |h_est|^2, sum |eq_data_grid|^2) to ``rtol`` so that
ulp-level FFT differences between numpy builds cannot fail the test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.phy import RATE_TABLE, Receiver
from tests.test_phy_batch import _make_batch

GOLDEN_PATH = Path(__file__).parent / "data" / "receiver_golden.json"
RTOL = 1e-9
N_PACKETS = 3
# (snr_db, mask_frac, seed) — the operating points of test_phy_batch.
OPERATING_POINTS = ((14.0, 0.0, 0), (8.0, 0.08, 100))
DECISIONS = ("soft", "hard")


def _case_key(mbps, decision, snr_db):
    return f"{mbps}Mbps-{decision}-{snr_db:g}dB"


def _cases():
    for mbps in sorted(RATE_TABLE):
        for decision in DECISIONS:
            for snr_db, mask_frac, seed in OPERATING_POINTS:
                waves, masks = _make_batch(
                    mbps, snr_db, n_pkts=N_PACKETS, seed=seed,
                    mask_frac=mask_frac,
                )
                yield _case_key(mbps, decision, snr_db), decision, waves, masks


def _record(result):
    """The golden summary of one :class:`RxResult`."""
    signal = result.signal
    bits = result.pre_viterbi_bits
    obs = result.observation
    return {
        "signal": None if signal is None else [signal.rate.mbps, signal.length],
        "n_pre_viterbi_bits": None if bits is None else int(bits.size),
        "pre_viterbi_bits": (
            None if bits is None else np.packbits(bits.astype(np.uint8)).tobytes().hex()
        ),
        "crc_ok": bool(result.ok),
        "psdu": result.decoded.psdu.hex() if result.ok else None,
        "noise_var": None if obs is None else float(obs.noise_var),
        "h_energy": None if obs is None else float(np.sum(np.abs(obs.h_est) ** 2)),
        "eq_energy": (
            None if obs is None else float(np.sum(np.abs(obs.eq_data_grid) ** 2))
        ),
    }


_FLOAT_FIELDS = ("noise_var", "h_energy", "eq_energy")


def _assert_matches(got, want, tag):
    for field, expected in want.items():
        actual = got[field]
        if field in _FLOAT_FIELDS and expected is not None:
            assert actual == pytest.approx(expected, rel=RTOL, abs=0.0), (tag, field)
        else:
            assert actual == expected, (tag, field)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cases():
    return list(_cases())


def test_golden_file_covers_every_case(golden, cases):
    assert set(golden["cases"]) == {key for key, *_ in cases}
    assert all(len(rows) == N_PACKETS for rows in golden["cases"].values())
    assert golden["rtol"] == RTOL
    # A golden file of failed decodes would pin no PSDU at all.
    outcomes = [row["crc_ok"] for rows in golden["cases"].values() for row in rows]
    assert any(outcomes)


def test_receive_matches_golden(golden, cases):
    for key, decision, waves, masks in cases:
        rx = Receiver(decision=decision)
        for i, (wave, mask) in enumerate(zip(waves, masks)):
            got = _record(rx.receive(wave, mask))
            _assert_matches(got, golden["cases"][key][i], (key, i, "receive"))


def test_receive_many_matches_golden(golden, cases):
    for key, decision, waves, masks in cases:
        results = Receiver(decision=decision).receive_many(waves, masks)
        for i, result in enumerate(results):
            got = _record(result)
            _assert_matches(got, golden["cases"][key][i], (key, i, "receive_many"))

