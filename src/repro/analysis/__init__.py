"""Measurement helpers shared by tests and experiments."""

from repro.analysis.metrics import bit_error_rate, symbol_error_rate_per_subcarrier
from repro.analysis.report import generate_report, write_report

__all__ = [
    "bit_error_rate",
    "symbol_error_rate_per_subcarrier",
    "generate_report",
    "write_report",
]
