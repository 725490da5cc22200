"""On-demand carrier sense against the eager fan-out it replaces.

Without a lens, a culled medium over static nodes re-evaluates carrier
sense at a frame's start and end only for the MACs that are contending;
a MAC that starts contending asks for its verdict then.  Attaching a
:class:`~repro.net.NetLens` puts every listener back on the eager path
(the ledger needs every flip).  The lens never draws from the RNG, so a
run's results must be the same either way, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.net import NetLens, NetSimulator, builtin_scenario

SCENARIOS = {
    "hidden-node": builtin_scenario("hidden-node"),
    "contention": builtin_scenario("contention"),
    "cross-cell": builtin_scenario("cross-cell"),
    "campus-roaming": builtin_scenario("campus-roaming"),
    "enterprise-grid-256": builtin_scenario(
        "enterprise-grid", n_aps=16, stations_per_ap=15, duration_us=20_000.0,
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lens_on_equals_lens_off(name, seed):
    spec = SCENARIOS[name]
    plain = NetSimulator(spec, rng=seed)
    lensed = NetSimulator(spec, rng=seed, lens=NetLens())
    # Only walkers keep the unlensed run on the eager path.
    assert plain.medium._eager == (name == "campus-roaming")
    assert lensed.medium._eager
    want = plain.run().to_dict()
    got = lensed.run().to_dict()
    assert got.pop("ledger")
    assert got == want
