"""Benchmark fixtures.

Each benchmark regenerates one paper figure at paper scale and prints the
same rows/series the paper reports (run with ``-s`` to see the tables;
key scalar outcomes are also attached as ``extra_info`` on the benchmark
record).

Trial execution goes through :mod:`repro.engine`: pass
``--repro-workers N`` (or set ``REPRO_WORKERS=N``) to run every
harness's trials on an N-process pool — results are bit-for-bit
identical to serial, only the wall-clock changes.
"""

import os

from repro.utils.env import env_int


def pytest_addoption(parser):
    parser.addoption(
        "--repro-workers", type=int, default=None, metavar="N",
        help="trial-engine worker processes for the harnesses "
             "(0 = serial; default: REPRO_WORKERS or serial)",
    )


def pytest_configure(config):
    workers = config.getoption("--repro-workers", default=None)
    if workers is not None:
        # The harnesses read REPRO_WORKERS through repro.engine when a
        # benchmark calls run() without an explicit workers argument.
        os.environ["REPRO_WORKERS"] = str(workers)
    effective = env_int("REPRO_WORKERS", 0)
    if effective:
        config._repro_workers_banner = (
            f"repro trial engine: {effective} worker processes"
        )


def pytest_report_header(config):
    return getattr(config, "_repro_workers_banner", None)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
