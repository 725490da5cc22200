"""Golden outputs of ``repro.net`` runs under the default rate controller.

``tests/data/net_default_golden.json`` records ``run_scenario(spec,
rng=0).to_dict()`` for every built-in scenario (``duration_us`` capped at
200 ms) under both control transports, plus ``hidden-node`` and
``cross-cell`` with surrogate CoS fidelity and surrogate frame fates.
The file was made at commit 3b2c2e79, the last commit whose control
plane carried its own inline SNR staircase for scenarios without a
controller, and is stamped with that hash; to regenerate it, check out
that commit and record ``run_scenario`` on the specs built by ``_specs``
below with ``controller=None``.

The default ``snr-threshold`` controller must reproduce it: ints,
strings and bools exactly, floats to ``rtol`` so that ulp-level
differences between numpy builds cannot fail the test.  The only key
the file lacks is ``controller``, which results now always carry.
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
SURROGATE_SCENARIOS = ("hidden-node", "cross-cell")


def _capped(name: str, control: str, **overrides):
    spec = builtin_scenario(name)
    return dataclasses.replace(
        spec, control=control,
        duration_us=min(spec.duration_us, DURATION_CAP_US), **overrides,
    )


def _specs():
    for name in sorted(BUILTIN_SCENARIOS):
        for control in ("cos", "explicit"):
            yield f"{name}/{control}", _capped(name, control)
    for name in SURROGATE_SCENARIOS:
        for control in ("cos", "explicit"):
            yield f"{name}/{control}/surrogate", _capped(
                name, control, cos_fidelity="surrogate",
                error_model="surrogate",
            )


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
