"""Fig. 7 benchmark — temporal stability of per-subcarrier quality."""

import numpy as np

from conftest import run_once
from repro.experiments import fig7


def test_fig7_temporal_stability(benchmark):
    result = run_once(benchmark, lambda: fig7.run(n_trials=40))
    fig7.print_result(result)

    medians = {tau: result.median_nabla(tau) for tau in sorted(result.nabla_samples)}
    for tau, med in medians.items():
        benchmark.extra_info[f"median_nabla_{int(tau)}ms"] = med
        # Paper claim: ∇EVM stays small (within a few percent out to 40 ms;
        # our estimator noise floor raises that slightly).
        assert med < 0.2, f"∇EVM at {tau} ms too large: {med}"
    # Consecutive-gap differences are small (the curves nearly overlap).
    values = list(medians.values())
    assert max(abs(b - a) for a, b in zip(values, values[1:])) < 0.1
