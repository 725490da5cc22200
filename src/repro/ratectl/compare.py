"""The head-to-head harness behind ``repro net compare``.

One scenario, the whole controller matrix: each registered controller
(or a chosen subset) runs the same :class:`~repro.net.scenario
.ScenarioSpec` for the same trials/seed through the deterministic sweep
engine, and the per-controller summaries collapse into one comparison
row set — goodput, retries, drops, control traffic, control airtime.

Frame fates and CoS delivery come from the measured-PHY surrogate
table, as in every ``repro.net`` run: the loss-driven samplers are only
meaningful when loss *means* something measured.

Net imports stay function-local: ``repro.net.scenario`` imports this
package for controller-name validation, so the module level here must
not import ``repro.net``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.ratectl.base import CONTROLLERS, available_controllers

__all__ = [
    "COMPARISON_HEADERS",
    "CONTROLLER_MATRIX",
    "SCENARIO_LIBRARY",
    "compare_controllers",
    "comparison_rows",
    "controller_summaries",
]

#: The canonical five-way matrix ``repro net compare`` runs by default.
CONTROLLER_MATRIX: Tuple[str, ...] = (
    "cos-feedback",
    "explicit-feedback",
    "snr-threshold",
    "minstrel",
    "samplerate",
)

#: The built-in scenario library the matrix sweeps when no --scenario is
#: given (names resolve through ``repro.net.scenarios.builtin_scenario``).
SCENARIO_LIBRARY: Tuple[str, ...] = (
    "hidden-node",
    "contention",
    "enterprise-grid",
    "campus-roaming",
    "cross-cell",
)


def controller_summaries(
    spec,
    controllers: Sequence[str] = CONTROLLER_MATRIX,
    n_trials: int = 3,
    seed: int = 0,
    workers: int = 0,
) -> Dict[str, Dict]:
    """``summarize_results`` of ``spec``'s trials under each controller.

    Every controller sees the identical scenario, trial count and seed —
    only the ``controller`` (and with it, possibly the control transport)
    differs.
    """
    from repro.net.simulator import run_scenario_sweep, summarize_results

    unknown = [c for c in controllers if c not in CONTROLLERS]
    if unknown:
        raise ValueError(
            f"unknown rate controller(s) {unknown}; available: "
            f"{', '.join(available_controllers())}"
        )
    return {
        name: summarize_results(run_scenario_sweep(
            dataclasses.replace(spec, controller=name),
            n_trials=n_trials, seed=seed, workers=workers,
        ))
        for name in controllers
    }


def compare_controllers(
    spec,
    controllers: Sequence[str] = CONTROLLER_MATRIX,
    n_trials: int = 3,
    seed: int = 0,
    workers: int = 0,
) -> Dict:
    """Run ``spec`` once per controller; return the comparison report.

    The rows collapse :func:`controller_summaries`, so differences in
    the report are differences in rate control, nothing else.
    """
    per: Dict[str, Dict] = {}
    summaries = controller_summaries(spec, controllers, n_trials=n_trials,
                                     seed=seed, workers=workers)
    for name, summary in summaries.items():
        nodes = summary["per_node"].values()
        per[name] = {
            "transport": summary["control"],
            "goodput_mbps": summary["aggregate_goodput_mbps"],
            "fairness": summary["fairness"],
            "retries": summary["collisions"],
            "data_delivered": sum(n["data_delivered"] for n in nodes),
            "data_dropped": sum(n["data_dropped"] for n in nodes),
            "control_generated": sum(n["control_generated"] for n in nodes),
            "control_delivered": sum(n["control_delivered"] for n in nodes),
            "control_airtime_fraction": summary["control_airtime_fraction"],
        }
    return {
        "scenario": spec.name,
        "n_trials": n_trials,
        "seed": seed,
        "controllers": per,
    }


#: Column headers of :func:`comparison_rows`.
COMPARISON_HEADERS: Tuple[str, ...] = (
    "controller", "transport", "goodput (Mbps)", "fairness", "retries",
    "drops", "ctrl gen", "ctrl del", "ctrl air %",
)


def comparison_rows(report: Dict) -> List[Tuple]:
    """Flatten a :func:`compare_controllers` report into table rows."""
    rows = []
    for name, row in report["controllers"].items():
        rows.append((
            name,
            row["transport"],
            f"{row['goodput_mbps']:.3f}",
            f"{row['fairness']:.3f}",
            f"{row['retries']:.1f}",
            f"{row['data_dropped']:.1f}",
            f"{row['control_generated']:.1f}",
            f"{row['control_delivered']:.1f}",
            f"{row['control_airtime_fraction'] * 100:.2f}",
        ))
    return rows
