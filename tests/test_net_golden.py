"""Golden outputs of ``repro.net`` runs under the default rate controller.

``tests/data/net_default_golden.json`` records ``run_scenario(spec,
rng=0).to_dict()`` for every built-in scenario (``duration_us`` capped at
200 ms) under both control transports.  Every case runs the measured
models of the committed surrogate table: its PRR curves decide frame
fates and its CoS curve decides embedded message delivery.  The file is stamped with the commit it was recorded at;
``python tests/test_net_golden.py`` prints a fresh record.

The default ``snr-threshold`` controller must reproduce it: ints,
strings and bools exactly, floats to ``rtol`` so that ulp-level
differences between numpy builds cannot fail the test.  The only key
the file lacks is ``controller``, which results always carry.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.net import builtin_scenario, run_scenario
from repro.net.scenarios import BUILTIN_SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "data" / "net_default_golden.json"
RTOL = 1e-9
DURATION_CAP_US = 200_000.0


def _capped(name: str, control: str):
    spec = builtin_scenario(name)
    return dataclasses.replace(
        spec, control=control,
        duration_us=min(spec.duration_us, DURATION_CAP_US),
    )


def _specs():
    for name in sorted(BUILTIN_SCENARIOS):
        for control in ("cos", "explicit"):
            yield f"{name}/{control}", _capped(name, control)


def _assert_matches(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert set(got) == set(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=RTOL, abs=0.0), path
    else:  # int, str, bool, None: exact, type included
        assert type(got) is type(want) and got == want, path


SPECS = dict(_specs())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_spec(golden):
    assert set(golden["cases"]) == set(SPECS)
    assert golden["duration_cap_us"] == DURATION_CAP_US
    assert golden["rng"] == 0


@pytest.mark.parametrize("key", list(SPECS))
def test_default_controller_matches_golden(golden, key):
    spec = SPECS[key]
    assert spec.controller == "snr-threshold"
    got = run_scenario(spec, rng=0).to_dict()
    assert got.pop("controller") == "snr-threshold"
    _assert_matches(got, golden["cases"][key], key)


def _record(spec) -> dict:
    got = run_scenario(spec, rng=0).to_dict()
    got.pop("controller")
    return got


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    print(json.dumps({
        "cases": {key: _record(spec) for key, spec in SPECS.items()},
        "commit": commit,
        "duration_cap_us": DURATION_CAP_US,
        "rng": 0,
    }, indent=1, sort_keys=True))
