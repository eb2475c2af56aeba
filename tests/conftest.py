"""Shared fixtures for the test suite.

Integration fixtures run the cluster simulator once per session with a
small configuration and share the result, so individual tests stay fast.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.topology import run_scenario

from helpers import TINY_STAGES, tiny_config  # noqa: F401  (re-exported for fixtures)

# `pytest --hypothesis-profile nightly` (the Fuzz workflow): the example
# budget for property tests that do not pin their own max_examples.
settings.register_profile("nightly", max_examples=5000, deadline=None)


@pytest.fixture(scope="session")
def tiny_run():
    """One shared small Browse_Only run (traced)."""
    return run_scenario(tiny_config())


@pytest.fixture(scope="session")
def tiny_trace(tiny_run):
    """The PreciseTracer result over the shared small run."""
    return tiny_run.trace(window=0.010)


@pytest.fixture(scope="session")
def loaded_run():
    """A run with enough concurrency to exercise queueing and thread reuse."""
    return run_scenario(tiny_config(clients=120, think_time=2.0))


@pytest.fixture()
def trace_builder():
    """A fresh synthetic-trace builder (no skew, no segmentation)."""
    from helpers import SyntheticTrace

    return SyntheticTrace()


@pytest.fixture()
def fresh_shape_table():
    """An empty process-wide shape table, emptied again afterwards: the
    test compiles every plan it reads, and none it compiled (possibly
    under a monkeypatch) outlives it."""
    from repro.core import shapes

    shapes._PLANS.clear()
    yield shapes._PLANS
    shapes._PLANS.clear()
