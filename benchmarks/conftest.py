"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper through the
figure generators in :mod:`repro.experiments.figures` and asserts its
shape.  Simulation runs are memoised in one shared cache for the whole
session, so figures that reuse the same experiment (e.g. Fig. 8 and
Fig. 9) only pay for it once.

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``small`` by default, ``full`` for the paper-sized grids).

Everything in this directory is marked ``slow``: the default test run
(``pytest -x -q``, see ``pytest.ini``) deselects it so the tier-1 suite
stays fast, and CI runs the benchmarks in a dedicated job with
``-m slow``.  These files reproduce the paper's figures; they are not a
performance measurement.  The one measurement, and the one perf gate, is
the end-to-end benchmark under ``e2e/`` (``run.py --out`` /
``--compare``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.config import default_scale
from repro.experiments.runner import RunCache

_BENCH_ROOT = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Mark every test collected from this directory as ``slow``."""
    for item in items:
        try:
            in_benchmarks = Path(str(item.fspath)).resolve().is_relative_to(_BENCH_ROOT)
        except (OSError, ValueError):  # pragma: no cover - exotic collectors
            in_benchmarks = False
        if in_benchmarks:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def scale():
    return default_scale()


@pytest.fixture(scope="session")
def cache():
    return RunCache()


def run_once(benchmark, func):
    """Run a figure generator exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
