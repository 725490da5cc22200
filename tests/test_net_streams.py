"""One random stream per purpose and owner in ``repro.net``.

Every draw of a run comes from a stream named by what it is for (backoff
per MAC, fates per receiver, CoS delivery per link, sampling per
controller, one per interferer, arrivals per traffic entry), so a change
to one model or one source leaves every other source's draws alone:

* swapping the controller or the control mode leaves every traffic
  arrival and every interferer burst start bit-identical;
* changing one interferer's ``probability`` leaves the other sources'
  arrivals and bursts unchanged;
* a stream is pure in (root, purpose, owner), whatever order the run
  asks for its streams in.

No built-in scenario has both Poisson traffic and an interferer, so the
tests build a small one.  Burst starts are read from the lens's
``net.tx_start`` records; arrivals are the instants the simulator hands
each traffic entry's frames to its MAC.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.net import (
    InterfererSpec,
    NetLens,
    NetSimulator,
    NodeSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.net.simulator import ARRIVALS, BACKOFF, FATES
from repro.utils.rng import named_rng


def _spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="streams",
        nodes=(NodeSpec("ap", 0.0, 0.0), NodeSpec("sta_a", 12.0, 0.0),
               NodeSpec("sta_b", -15.0, 5.0)),
        flows=(),
        duration_us=80_000.0,
        interferers=(
            InterfererSpec(name="jam1", x=0.0, y=40.0, power_dbm=5.0,
                           burst_us=150.0, period_us=1_500.0,
                           probability=0.3),
            InterfererSpec(name="jam2", x=40.0, y=0.0, power_dbm=5.0,
                           burst_us=100.0, period_us=2_500.0,
                           probability=0.5, start_us=300.0),
        ),
        traffic=(
            TrafficSpec(src="sta_a", dst="ap", model="poisson",
                        rate_pps=400.0, payload_octets=600),
            TrafficSpec(src="sta_b", dst="ap", model="poisson",
                        rate_pps=250.0, payload_octets=900),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _sources(spec: ScenarioSpec, seed: int = 3):
    """``(arrivals, bursts, result)``: arrivals as ``(src, t_us)`` in the
    order the MACs got them, bursts as ``(interferer, t_us)`` from the
    lens's ``net.tx_start`` records."""
    arrivals = []
    arrive = NetSimulator._traffic_arrive

    def recording(self, t, arrival_us):
        arrivals.append((t.src, arrival_us))
        arrive(self, t, arrival_us)

    NetSimulator._traffic_arrive = recording
    try:
        result = NetSimulator(spec, rng=seed, lens=NetLens()).run()
    finally:
        NetSimulator._traffic_arrive = arrive
    bursts = [(r["src"], r["t_us"]) for r in result.events
              if r["name"] == "net.tx_start" and r["kind"] == "interference"]
    return arrivals, bursts, result


@pytest.fixture(scope="module")
def baseline():
    return _sources(_spec())


def test_the_small_spec_exercises_every_source(baseline):
    arrivals, bursts, result = baseline
    assert {src for src, _ in arrivals} == {"sta_a", "sta_b"}
    assert {src for src, _ in bursts} == {"jam1", "jam2"}
    assert result.per_node["sta_a"].data_delivered > 0


@pytest.mark.parametrize("change", [
    {"controller": "minstrel"},
    {"controller": "cos-feedback"},
    {"controller": "explicit-feedback"},
    {"control": "explicit"},
])
def test_controller_or_control_swap_keeps_arrivals_and_bursts(baseline, change):
    arrivals, bursts, result = baseline
    got_arrivals, got_bursts, got = _sources(_spec(**change))
    assert sorted(got_arrivals) == sorted(arrivals)
    assert got_bursts == bursts
    # The rows differ where they should: in what the controller did.
    assert got.to_dict() != result.to_dict()


def test_one_interferers_probability_leaves_the_other_sources(baseline):
    arrivals, bursts, _ = baseline
    spec = _spec()
    jam1 = dataclasses.replace(spec.interferers[0], probability=0.9)
    got_arrivals, got_bursts, _ = _sources(
        dataclasses.replace(spec, interferers=(jam1, spec.interferers[1])))
    assert sorted(got_arrivals) == sorted(arrivals)
    assert [b for b in got_bursts if b[0] == "jam2"] == \
        [b for b in bursts if b[0] == "jam2"]
    assert len([b for b in got_bursts if b[0] == "jam1"]) > \
        len([b for b in bursts if b[0] == "jam1"])


def test_named_rng_is_pure_whatever_the_request_order():
    root = np.random.SeedSequence(11).spawn(3)[2]
    keys = [(purpose, owner) for purpose in (BACKOFF, FATES, ARRIVALS)
            for owner in (0, 1, 7, 2**63)]
    forward = {k: named_rng(root, k[0], owner=k[1]).random(3).tolist()
               for k in keys}
    backward = {k: named_rng(root, k[0], owner=k[1]).random(3).tolist()
                for k in reversed(keys)}
    assert forward == backward
    assert len({tuple(v) for v in forward.values()}) == len(keys)


def test_simulator_streams_are_pure_whatever_the_request_order():
    spec = _spec()
    names = [n.name for n in spec.nodes]
    first, second = NetSimulator(spec, rng=5), NetSimulator(spec, rng=5)
    fates_a = {n: first.medium.fates[n].random() for n in names}
    fates_b = {n: second.medium.fates[n].random() for n in reversed(names)}
    assert fates_a == fates_b
    backoff = first.macs["ap"].backoff_rngs
    assert backoff["sta_b"].random() == \
        second.macs["sta_b"].backoff_rngs["sta_b"].random()
    # One purpose's stream of an owner is not another purpose's.
    assert len({*fates_a.values(), backoff["ap"].random()}) == len(names) + 1


def test_a_generator_seed_is_drawn_from_once():
    spec = _spec(duration_us=20_000.0)
    caller = np.random.default_rng(4)
    a = NetSimulator(spec, rng=caller).run().to_dict()
    reference = np.random.default_rng(4)
    reference.integers(2**63)
    assert caller.random() == reference.random()
    assert NetSimulator(spec, rng=np.random.default_rng(4)).run().to_dict() == a


def test_owner_keys_do_not_depend_on_the_process_hash_seed():
    code = ("from repro.net.simulator import _name_key; "
            "print(_name_key('sta_near'), _name_key('jam1'))")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outputs.add(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(outputs) == 1
