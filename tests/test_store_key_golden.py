"""Golden content addresses of :func:`repro.engine.store.spec_key`.

``tests/data/store_key_golden.json`` records ``spec_key`` under the fixed
``SALT`` below for every entry of ``_corpus()`` at seeds 0 and 1: the
built-in ``hidden-node`` and ``cross-cell`` scenarios and a 4-AP
``enterprise-grid`` as ``repro net`` sweeps shape them, with and without
a lens; fig2/fig9-style ``ExperimentConfig`` params; and params holding
bytes, ndarrays, sets, floats with special values and dicts with
non-string keys.  A key that changes here orphans every store entry
written under it, so the file is the pin on the key encoder.  It is
stamped with the commit it was recorded at;
``python tests/test_store_key_golden.py`` prints a fresh record.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine.spec import make_specs
from repro.engine.store import spec_key
from repro.experiments import fig2, fig9
from repro.experiments.common import ExperimentConfig
from repro.net import cross_cell, enterprise_grid, hidden_node
from repro.net.simulator import _scenario_trial

GOLDEN_PATH = Path(__file__).parent / "data" / "store_key_golden.json"
SALT = {"schema": 1, "code": "golden", "kernel_backend": "numpy",
        "surrogate_table": None}
SEEDS = (0, 1)


def _corpus():
    """``name -> (trial fn, params)``."""
    scenarios = {
        "hidden-node": hidden_node(),
        "cross-cell": cross_cell(),
        "enterprise-grid-4ap": enterprise_grid(n_aps=4, stations_per_ap=3),
    }
    lenses = {"": None, "/lens": True,
              "/lens-kwargs": {"trace": False, "max_events": 1000}}
    corpus = {}
    for name, spec in scenarios.items():
        for suffix, lens in lenses.items():
            corpus[name + suffix] = (
                _scenario_trial, {"scenario": spec, "trial": 0, "lens": lens})
    corpus["fig2"] = (fig2._trial, {"config": ExperimentConfig(),
                                    "snr_db": 12.0, "realizations": 3})
    corpus["fig9"] = (fig9._trial, {
        "config": ExperimentConfig(seed=3, position="B", payload=b"\x00cos\xff"),
        "snr_db": 7.3, "n_packets": 150, "max_failures": 1})
    corpus["bytes"] = (_scenario_trial, {"payload": b"\x00\x01\xfe\xff",
                                         "buffer": bytearray(b"silence")})
    corpus["ndarray"] = (_scenario_trial, {
        "grid": np.arange(6.0).reshape(2, 3),
        "mask": np.array([True, False, True]),
        "empty": np.zeros((0, 4), dtype=np.int16)})
    corpus["set"] = (_scenario_trial, {"ids": {3, 1, 2},
                                       "names": frozenset({"ap", "sta", "é"}),
                                       "mixed": {1, "1", (1, 2), None}})
    corpus["non-str-keys"] = (_scenario_trial, {"table": {
        1: "one", 2.5: "two and a half", (1, 2): "tuple", None: "none",
        "s": [1, 2], -3: {"nested": (None, 1.5)}}})
    corpus["scalars"] = (_scenario_trial, {
        "inf": float("inf"), "ninf": float("-inf"), "nan": float("nan"),
        "nzero": -0.0, "tiny": 5e-324, "big": 2 ** 70, "neg": -17,
        "flags": [True, False, None], "text": "héllo ☃ \"q\"\n\t\\",
        "empty": ["", (), {}, []], "path": Path("scenarios/a.json"),
        "np_int": np.int64(-4), "np_bool": np.bool_(True)})
    return corpus


def _keys():
    out = {}
    for name, (fn, params) in _corpus().items():
        for seed in SEEDS:
            spec = make_specs([params], seed=seed)[0]
            out[f"{name}/seed{seed}"] = spec_key(fn, spec, SALT)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_corpus(golden):
    assert golden["commit"]
    assert golden["salt"] == SALT
    assert set(golden["keys"]) == {f"{name}/seed{seed}" for name in _corpus()
                                   for seed in SEEDS}


def test_every_key_matches_the_golden(golden):
    got = _keys()
    mismatched = sorted(k for k, v in golden["keys"].items() if got[k] != v)
    assert not mismatched


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    print(json.dumps({"commit": commit, "salt": SALT, "keys": _keys()},
                     indent=2))
