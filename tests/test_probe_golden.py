"""Golden digests of every open-loop packet-probe harness.

Fig. 3/5/6/7, the PHY waterfall, the placement and EVD ablations and the
surrogate's :func:`~repro.phy.surrogate.measure_prr_point` all send
packets at a fixed rate through one channel and receive them through
:func:`repro.experiments.common.send_probe_packets`.  Each case below runs
one of them at a tiny scale, serially and without a result store, and
compares the sha256 of its :func:`repro.engine.store.canonical_json`
rendering (exact float reprs, array bytes) with
``tests/data/probe_golden.json``.  Together the cases cover the probe's
three erasure policies: none (figures, waterfall, EVD error-only), the
transmitted silence mask (placement, EVD) and the energy detector
(``measure_prr_point``).

The file was recorded at commit 5a4cc3d5, when each harness still ran
its own transmit/receive loop; to regenerate it, check out that commit
and record ``{name: _digest(case()) for name, case in CASES.items()}``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import TrialError
from repro.engine import store as store_mod
from repro.experiments import ablations, fig3, fig5, fig6, fig7, waterfall
from repro.phy.surrogate import measure_prr_point

GOLDEN_PATH = Path(__file__).parent / "data" / "probe_golden.json"

#: (position, SNR dB, rate Mbps, channel seed): one point per modulation
#: family, each where some but not all of its 12 packets decode.
PRR_POINTS = (
    ("A", 2.0, 6, 0),
    ("A", 6.0, 12, 1),
    ("B", 13.0, 36, 2),
    ("C", 18.0, 54, 3),
)

CASES = {
    "fig3": lambda: fig3.run(snr_grid=np.array([12.0, 14.5, 17.0]),
                             n_packets=3, realizations=2, workers=0),
    "fig5": lambda: fig5.run(n_packets=3, workers=0),
    "fig6": lambda: fig6.run(n_packets=6, workers=0),
    "fig7": lambda: fig7.run(n_trials=2, workers=0),
    "waterfall": lambda: waterfall.run(snrs_db=np.array([4.0, 10.0, 16.0]),
                                       n_packets=3, workers=0),
    "placement": lambda: ablations.run_placement(n_packets=4, workers=0),
    "evd": lambda: ablations.run_evd(n_packets=4, workers=0),
    **{
        f"prr-{pos}-{snr:g}dB-{mbps}M-s{seed}": (
            lambda pos=pos, snr=snr, mbps=mbps, seed=seed:
            measure_prr_point(pos, snr, mbps, 12, 256, seed)
        )
        for pos, snr, mbps, seed in PRR_POINTS
    },
}


def _digest(obj) -> str:
    return hashlib.sha256(store_mod.canonical_json(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def _uncached(monkeypatch):
    """No ambient result store to replay from."""
    monkeypatch.setattr(store_mod, "_default_store", None)


def test_golden_covers_every_case(golden):
    assert sorted(golden["digests"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_harness_matches_golden(name, golden):
    assert _digest(CASES[name]()) == golden["digests"][name]


@pytest.mark.parametrize(
    "kwargs,match",
    [({"n_packets": 0}, "n_packets"),
     ({"n_packets": 2, "erasures": "oracle"}, "erasures")],
)
def test_probe_rejects_bad_arguments(kwargs, match):
    from repro.channel import IndoorChannel
    from repro.experiments.common import send_probe_packets
    from repro.phy import RATE_TABLE

    channel = IndoorChannel.position("A", snr_db=20.0, seed=0)
    with pytest.raises(ValueError, match=match):
        send_probe_packets(channel, RATE_TABLE[24], **kwargs)


@pytest.mark.parametrize("run", [
    lambda: measure_prr_point("A", 10.0, 24, 0, 256, 0),
    lambda: waterfall.run(snrs_db=np.array([10.0]), n_packets=0, workers=0),
    lambda: ablations.run_placement(n_packets=0, workers=0),
], ids=["measure_prr_point", "waterfall", "placement"])
def test_harness_rejects_empty_probe(run):
    # The placement ablation's probe fails inside an engine trial.
    with pytest.raises((ValueError, TrialError), match="n_packets must be >= 1"):
        run()
