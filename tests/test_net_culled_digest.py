"""Exact digests of culled-medium runs at each scenario's finite floor.

``tests/data/net_culled_digest.json`` pins the sha256 of the canonical
``run_scenario(spec, rng=seed).to_dict()`` (JSON, sorted keys, compact
separators; floats are written with ``repr`` so every bit counts) for:

* ``enterprise-grid`` with 16 cells of 1 AP + 15 stations, 50 ms, at its
  built-in -95 dBm interference floor, so carrier sense and interference
  sums skip sub-floor pairs (seeds 0 and 1);
* ``campus-roaming`` at the ``RadioSpec`` default -100 dBm floor: mobile
  walkers, beacons and roams.  At 200 ms (seeds 0 and 1) every roam
  happens with the air empty; the built-in 400 ms run (seed 0) also
  retunes a walker while a frame is on the air.

All run the default ``snr-threshold`` controller and the measured
models of the committed surrogate table.  The golden test in
``test_net_golden.py`` compares floats only to a relative tolerance, and
the culled-vs-dense equivalence tests run at a -inf floor; this file is
the bit-exact pin on the default culled path.  The file is stamped with
the commit it was recorded at; ``python tests/test_net_culled_digest.py``
prints a fresh record to stdout.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.net import builtin_scenario, run_scenario
from repro.net.medium import Medium

DIGEST_PATH = Path(__file__).parent / "data" / "net_culled_digest.json"

SPECS = {
    "enterprise-grid-256": builtin_scenario(
        "enterprise-grid", n_aps=16, stations_per_ap=15, duration_us=50_000.0,
    ),
    "campus-roaming-200ms": builtin_scenario("campus-roaming",
                                             duration_us=200_000.0),
    "campus-roaming-400ms": builtin_scenario("campus-roaming"),
}
CASES = [
    ("enterprise-grid-256", 0), ("enterprise-grid-256", 1),
    ("campus-roaming-200ms", 0), ("campus-roaming-200ms", 1),
    ("campus-roaming-400ms", 0),
]


def _key(name: str, seed: int) -> str:
    return f"{name}/seed{seed}"


def result_sha256(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_PATH.read_text())


def test_digest_file_covers_every_case(digests):
    assert set(digests["cases"]) == {_key(n, s) for n, s in CASES}
    assert digests["commit"]


def test_specs_run_culled_at_a_finite_floor():
    assert SPECS["enterprise-grid-256"].radio.interference_floor_dbm == -95.0
    assert SPECS["campus-roaming-200ms"].radio.interference_floor_dbm == -100.0
    assert SPECS["campus-roaming-400ms"].duration_us == 400_000.0
    for spec in SPECS.values():
        assert spec.medium_mode == "culled"
        assert spec.controller == "snr-threshold"


@pytest.mark.parametrize("name,seed", CASES)
def test_culled_run_matches_digest(digests, name, seed):
    got = result_sha256(run_scenario(SPECS[name], rng=seed))
    assert got == digests["cases"][_key(name, seed)]


def test_campus_roaming_retunes_while_a_frame_is_on_the_air(monkeypatch):
    """The 400 ms campus pin covers ``set_channel`` with a frame in flight."""
    busy_retunes = []
    original = Medium.set_channel

    def counting(self, name, ch):
        if self._active and ch != self.channel.get(name, 0):
            busy_retunes.append(name)
        original(self, name, ch)

    monkeypatch.setattr(Medium, "set_channel", counting)
    result = run_scenario(SPECS["campus-roaming-400ms"], rng=0)
    assert result.n_roams >= 2
    assert busy_retunes


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    print(json.dumps({
        "commit": commit,
        "cases": {
            _key(name, seed): result_sha256(run_scenario(SPECS[name], rng=seed))
            for name, seed in CASES
        },
    }, indent=2))
