"""The Pipeline facade: source -> backend -> stages -> sinks, one call.

The paper's conceptual pipeline -- collect interaction activities,
correlate them into CAGs, then analyze -- used to be wired by hand at
every call site (CLI commands, figure generators, examples).
:class:`Pipeline` is that wiring as one composable object::

    from repro.pipeline import (
        AccuracyStage, BackendSpec, Pipeline, RankedLatencyStage,
    )
    from repro import ScenarioConfig

    pipe = Pipeline(
        source=ScenarioConfig("rubis", clients=150),  # or a run, log files, ...
        backend=BackendSpec.streaming(horizon=5.0),
        stages=[RankedLatencyStage(top=5), AccuracyStage()],
    )
    session = pipe.run()
    print(session.trace.request_count, "causal paths")
    print(session.analyses["accuracy"].accuracy)

A :class:`TraceSession` is one execution of a pipeline: it carries the
resolved source, the backend spec, the :class:`~repro.core.tracer.
TraceResult`, every stage's result (``analyses``) and every sink's
written paths (``artifacts``).  Swapping the backend -- batch to
streaming to sharded -- changes nothing downstream, and
:meth:`Pipeline.verify_equivalence` asserts exactly that on the
pipeline's own source.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.cag import CAG
from ..core.tracer import TraceResult
from .backends import BackendSpec, DriveTimings
from .equivalence import EquivalenceReport, verify_equivalence
from .sinks import Sink
from .sources import Source, as_source
from .stages import AnalysisStage


@dataclass
class TraceSession:
    """Everything one pipeline execution produced."""

    source: Source
    backend: BackendSpec
    trace: TraceResult
    #: stage results keyed by stage name
    analyses: Dict[str, object] = field(default_factory=dict)
    #: paths written by sinks, keyed by sink name
    artifacts: Dict[str, List[object]] = field(default_factory=dict)
    #: where the drive's wall clock went (``None`` on a session assembled
    #: by hand around a trace)
    timings: Optional[DriveTimings] = None

    # -- shortcuts -----------------------------------------------------------

    @property
    def run(self):
        """The underlying simulation run, when the source has one."""
        return self.source.run

    @property
    def cags(self) -> List[CAG]:
        return self.trace.cags

    @property
    def request_count(self) -> int:
        return self.trace.request_count

    def accuracy(self):
        """Accuracy vs. ground truth (cached if an AccuracyStage ran)."""
        if "accuracy" in self.analyses:
            return self.analyses["accuracy"]
        truth = self.source.ground_truth
        if truth is None:
            raise ValueError(
                f"source has no ground truth ({self.source.describe()})"
            )
        return self.trace.accuracy(truth)

    def source_counters(self) -> Dict[str, int]:
        """What the read in front of the engine saw, and how many of its
        rows became objects (``summary()`` and the CLI's ``--json`` both
        carry these): ``materialised_activities`` rows were built into an
        ``Activity`` when delivered -- the rest were discarded as noise
        without ever being one.  Part of no digest."""
        source = self.source
        correlation = self.trace.correlation
        return {
            "malformed_lines": source.malformed_lines,
            "late_lines": source.late_lines,
            "peak_buffered": source.peak_buffered,
            "materialised_activities": correlation.materialised_activities,
        }

    def drive_timings(self) -> Dict[str, Optional[float]]:
        """``wall_clock_s`` / ``first_cag_s`` / ``hook_time_s`` of the drive
        (``summary()`` and ``--json`` carry them); empty without timings."""
        return asdict(self.timings) if self.timings is not None else {}

    def summary(self) -> Dict[str, Optional[float]]:
        """The trace's compact numeric summary plus source-side counters
        and the drive's timings."""
        data = self.trace.summary()
        counters = self.source_counters()
        data.update((name, float(count)) for name, count in counters.items())
        data.update(self.drive_timings())
        return data


class Pipeline:
    """Composable trace pipeline: one source, one backend, any stages/sinks.

    Parameters
    ----------
    source:
        Anything :func:`~repro.pipeline.sources.as_source` accepts: a
        ``ScenarioConfig`` (simulated lazily, memoised),
        a completed run result, an activity list, or a
        :class:`~repro.pipeline.sources.Source` instance
        (:class:`~repro.pipeline.sources.LogSource` for log files).
    backend:
        A :class:`BackendSpec`; defaults to the batch driver at the
        paper's 10 ms window.
    stages:
        Analysis stages, run in order; each result lands in
        ``session.analyses[stage.name]``.
    sinks:
        Artefact writers, run after the stages; written paths land in
        ``session.artifacts[sink.name]``.
    """

    def __init__(
        self,
        source,
        backend: Optional[BackendSpec] = None,
        stages: Sequence[AnalysisStage] = (),
        sinks: Sequence[Sink] = (),
    ) -> None:
        self.source: Source = as_source(source)
        self.backend = backend or BackendSpec()
        self.stages = list(stages)
        self.sinks = list(sinks)

    # -- derivation ----------------------------------------------------------

    def with_backend(self, backend: BackendSpec) -> "Pipeline":
        """The same pipeline driven by a different backend."""
        return Pipeline(
            source=self.source,
            backend=backend,
            stages=self.stages,
            sinks=self.sinks,
        )

    # -- execution -----------------------------------------------------------

    def run(self, on_cag: Optional[Callable[[CAG], None]] = None) -> TraceSession:
        """Execute source -> backend -> stages -> sinks.

        ``on_cag`` is forwarded to the backend and fires per finished
        CAG *while the engine runs* on the streaming backend (as the
        stream is consumed: the online monitoring hook) and on the batch
        backend (between slices of its drain, once the trace is read);
        only the sharded backend fires it after correlation.  Sinks that
        expose an ``on_cag`` hook of their own (live sinks, e.g.
        :class:`~repro.pipeline.sinks.StoreSink`) are fanned into the
        same callback so they ingest incrementally -- a batch run's first
        request row is stored long before its last activity is
        correlated.  ``session.timings`` says where the wall clock went.
        """
        live_hooks = [sink.on_cag for sink in self.sinks if hasattr(sink, "on_cag")]
        if on_cag is not None:
            live_hooks.append(on_cag)
        callback: Optional[Callable[[CAG], None]] = None
        if live_hooks:

            def callback(cag: CAG) -> None:
                for hook in live_hooks:
                    hook(cag)

        timings = DriveTimings()
        trace = self.backend.run(self.source, on_cag=callback, timings=timings)
        session = TraceSession(
            source=self.source, backend=self.backend, trace=trace, timings=timings
        )
        for stage in self.stages:
            session.analyses[stage.name] = stage.run(session)
        for sink in self.sinks:
            session.artifacts[sink.name] = sink.write(session)
        return session

    def verify_equivalence(
        self, backends: Optional[Sequence[BackendSpec]] = None
    ) -> EquivalenceReport:
        """Check backend equivalence on this pipeline's own source.

        ``backends`` defaults to batch/streaming/sharded at this
        pipeline's window.  Returns the report; chain ``.require()`` to
        turn a mismatch into an exception.
        """
        return verify_equivalence(
            self.source, backends=backends, window=self.backend.window
        )
