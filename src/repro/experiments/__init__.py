"""Experiment harnesses — one module per paper figure plus ablations.

Each module exposes ``run(...) -> result`` and ``print_result(result)``;
``python -m repro.experiments.runner`` executes every figure in sequence
at the paper's packet/trial budgets (about a minute with two workers).
"""

from repro.experiments import (
    ablations,
    common,
    fig2,
    fig3,
    fig5,
    fig6,
    fig7,
    fig9,
    fig10,
    network,
    waterfall,
)
from repro.experiments.common import ExperimentConfig

__all__ = [
    "ablations",
    "common",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "network",
    "waterfall",
    "ExperimentConfig",
]
