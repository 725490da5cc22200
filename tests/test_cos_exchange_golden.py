"""Golden outcomes of the closed CoS loop, ``CosLink.exchange`` end to end.

``tests/data/cos_exchange_golden.json`` records every exchange of a fixed
-seed run over 16 links: the ``cos-closed-loop`` benchmark's four
(position, measured SNR) rate points — the centres of the 12 / 24 / 36 /
54 Mbps staircase bands — times four channel realisations, visited round
robin for ``N_ROUNDS`` rounds with fresh 32-bit control messages.  The
file was made at commit 60c573cc, before the subset-min demap kernel and
the ``zlib`` FCS, and is stamped with that hash; to regenerate it, check
out that commit and record ``_run()`` below.

Every recorded field is discrete (rate, CRC outcome, control bits sent
and recovered as ``"0101…"`` strings, silence count) or the exact
``repr`` of the measured SNR, and must match exactly: the pin covers rate
selection, silence insertion, energy detection, soft demapping, erasure
Viterbi, the FCS check and the subcarrier feedback that carries state
from one exchange to the next.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.channel import IndoorChannel
from repro.cos.link import CosLink

GOLDEN_PATH = Path(__file__).parent / "data" / "cos_exchange_golden.json"
SEED = 0
RATE_POINTS = (("A", 8.3), ("B", 14.6), ("C", 18.6), ("A", 25.0))
REALISATIONS = 4
N_ROUNDS = 4
GAP_S = 1e-4
CONTROL_BITS = 32
PAYLOAD = bytes(range(256)) * 2


def _links():
    return [
        (f"{pos}-{snr:g}dB-r{j}", CosLink(
            IndoorChannel.position(
                pos, snr_db=snr, seed=np.random.default_rng([SEED, r, j])
            ),
            inter_packet_gap_s=GAP_S,
        ))
        for j in range(REALISATIONS)
        for r, (pos, snr) in enumerate(RATE_POINTS)
    ]


def _record(outcome):
    return {
        "rate_mbps": outcome.rate_mbps,
        "data_ok": bool(outcome.data_ok),
        "control_sent": "".join(map(str, outcome.control_sent.tolist())),
        "control_received": "".join(map(str, outcome.control_received.tolist())),
        "n_silences": int(outcome.n_silences),
        "measured_snr_db": repr(outcome.measured_snr_db),
    }


def _run():
    """``{link key: [record per exchange]}`` for the whole run."""
    links = _links()
    bits_rng = np.random.default_rng([SEED, len(RATE_POINTS)])
    runs = {key: [] for key, _ in links}
    for _ in range(N_ROUNDS):
        for key, link in links:
            bits = bits_rng.integers(0, 2, size=CONTROL_BITS, dtype=np.uint8)
            runs[key].append(_record(link.exchange(PAYLOAD, bits)))
    return runs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def runs():
    return _run()


def test_golden_file_covers_every_link(golden):
    assert golden["seed"] == SEED
    assert len(golden["links"]) == len(RATE_POINTS) * REALISATIONS
    assert all(len(rows) == N_ROUNDS for rows in golden["links"].values())
    rows = [row for rows in golden["links"].values() for row in rows]
    # Every staircase band is exercised and control bits are carried.
    assert {row["rate_mbps"] for row in rows} == {12, 24, 36, 54}
    assert any(row["control_sent"] and row["data_ok"] for row in rows)


def test_exchanges_match_golden(golden, runs):
    assert set(runs) == set(golden["links"])
    for key, rows in golden["links"].items():
        for i, want in enumerate(rows):
            assert runs[key][i] == want, (key, i)
