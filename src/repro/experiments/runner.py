"""Shared run infrastructure for the figure generators.

Several figures reuse the same simulated runs (e.g. Fig. 8 and Fig. 9 both
need the Browse_Only client sweep, Fig. 10 and Fig. 11 both need the
window-sweep runs).  :class:`RunCache` memoises completed runs keyed by
their configuration so a full figure suite performs each distinct
simulation exactly once per process.

:func:`stream_trace` is the streaming counterpart of
:meth:`TopologyRunResult.trace`; since the pipeline refactor it is a thin
wrapper over :class:`~repro.pipeline.BackendSpec` -- kept because the
figure generators read naturally with run-centric helpers, but every knob
and semantics detail lives in the backend spec now.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.tracer import TraceResult
from ..pipeline import BackendSpec
from ..topology.deployment import TopologyRunResult
from ..topology.library import ScenarioConfig, run_scenario


def config_key(config: ScenarioConfig) -> str:
    """A stable identity for a run configuration.

    The repr of what the run is built from (``config.run_inputs()``:
    trees of frozen/simple dataclasses, so the repr is deterministic and
    complete), not of the config itself: two configs that describe one
    run share a key, so a pool size spelled out at its default (Fig. 16's
    ``MaxThreads = 40`` series) or the scenario's own mix passed
    explicitly reuses the plain run.
    """
    return repr(config.run_inputs())


@dataclass
class RunCache:
    """Memoises simulation runs by configuration."""

    runs: Dict[str, TopologyRunResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, config: ScenarioConfig) -> TopologyRunResult:
        key = config_key(config)
        cached = self.runs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = run_scenario(config)
        self.runs[key] = result
        return result

    def clear(self) -> None:
        self.runs.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.runs)


#: Cache shared by every figure generator in this process (benchmarks and
#: the CLI both profit from reuse across figures).
SHARED_CACHE = RunCache()


def get_run(config: ScenarioConfig, cache: Optional[RunCache] = None) -> TopologyRunResult:
    """Fetch (or execute) the run for ``config`` using the shared cache."""
    target = cache if cache is not None else SHARED_CACHE
    return target.get(config)


def trace_run(
    run: TopologyRunResult,
    backend: BackendSpec,
    store=None,
    store_run_id: Optional[str] = None,
    scenario: Optional[str] = None,
) -> TraceResult:
    """Trace a completed run through any pipeline backend.

    The run's logs are classified and packed into rows, from which the
    backend builds the objects it correlates.  Returns the same
    :class:`~repro.core.tracer.TraceResult` as :meth:`TopologyRunResult.trace`,
    so every analysis helper (patterns, profiles, accuracy) applies
    unchanged regardless of the driver.

    ``store`` (a path or an open :class:`~repro.store.TraceStore`)
    additionally lands the trace in a persistent store under
    ``store_run_id`` -- how experiment sweeps accumulate a queryable
    history instead of discarding each trace with the process.
    """
    trace = backend.trace(run.activities())
    if store is not None:
        from ..store import record_trace

        record_trace(
            store,
            trace,
            run_id=store_run_id,
            scenario=scenario,
            source=f"experiment run ({run.workload.kind})",
            backend=backend,
        )
    return trace


def stream_trace(
    run: TopologyRunResult,
    window: float = 0.010,
    horizon: Optional[float] = None,
    chunk_size: int = 256,
    skew_bound: Optional[float] = None,
) -> TraceResult:
    """Trace a completed run through the *streaming* backend.

    Thin wrapper over ``BackendSpec.streaming``; the default
    ``skew_bound`` is derived from the run's own configured clock skew.
    """
    if skew_bound is None:
        skew_bound = max(run.clock_skew * 2.0, 1e-4)
    return trace_run(
        run,
        BackendSpec.streaming(
            window=window,
            horizon=horizon,
            skew_bound=skew_bound,
            chunk_size=chunk_size,
        ),
    )
