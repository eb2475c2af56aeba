"""Unified correlation pipeline: one backend-agnostic API, source to analysis.

The paper's contribution is a single conceptual pipeline -- collect
interaction activities, correlate them into Component Activity Graphs,
then analyze (ranked latencies, breakdowns, fault diagnosis).  This
package is that pipeline as a composable facade over the repo's layers:

    source  ->  backend  ->  stages  ->  sinks
    (simulation run,   (batch |      (ranked latency,  (summary JSON,
     log files,         streaming |   patterns,         CAG JSONL,
     raw activities)    sharded)      accuracy, ...)    DOT export)

Entry points
------------
:class:`Pipeline` / :class:`TraceSession`
    Compose and execute: ``Pipeline(source, backend, stages, sinks).run()``.
:class:`BackendSpec`
    Declarative driver selection (``batch`` | ``streaming`` | ``sharded``)
    carrying window/horizon/skew-bound/chunk-size/checkpoint knobs;
    :class:`DriveTimings` is what one drive reports about its wall clock.
:mod:`sources <repro.pipeline.sources>`
    :class:`RunSource` (simulations, memoised), :class:`LogSource`
    (chunked log-file readers), :class:`MemorySource` (raw activities).
:mod:`stages <repro.pipeline.stages>`
    :class:`RankedLatencyStage`, :class:`PatternStage`,
    :class:`BreakdownStage`, :class:`AccuracyStage`, :class:`ProfileStage`,
    :class:`DiagnosisStage`.
:mod:`sinks <repro.pipeline.sinks>`
    :class:`SummaryJsonSink`, :class:`CagJsonlSink`, :class:`DotSink`,
    :class:`StoreSink` (persistent SQLite trace store).
:func:`verify_equivalence`
    Backend equivalence as an API: identical CAGs and ranked reports
    across backends, checkable (and goldenly pinnable) on any source.
"""

from ..sampling import SamplingAccuracy, SamplingSpec
from .backends import BACKEND_KINDS, BackendSpec, DriveTimings, default_backends
from .equivalence import (
    BackendOutcome,
    EquivalenceError,
    EquivalenceReport,
    canonical_cags,
    ranked_latency_report,
    result_digest,
    verify_equivalence,
)
from .facade import Pipeline, TraceSession
from .sinks import CagJsonlSink, DotSink, Sink, StoreSink, SummaryJsonSink
from .sources import LogSource, MemorySource, RunSource, Source, as_source
from .stages import (
    AccuracyStage,
    AnalysisStage,
    BreakdownStage,
    DiagnosisStage,
    PatternStage,
    ProfileStage,
    RankedLatencyStage,
    SamplingAccuracyStage,
)

__all__ = [
    "AccuracyStage",
    "AnalysisStage",
    "BACKEND_KINDS",
    "BackendOutcome",
    "BackendSpec",
    "BreakdownStage",
    "CagJsonlSink",
    "DiagnosisStage",
    "DotSink",
    "DriveTimings",
    "EquivalenceError",
    "EquivalenceReport",
    "LogSource",
    "MemorySource",
    "PatternStage",
    "Pipeline",
    "ProfileStage",
    "RankedLatencyStage",
    "RunSource",
    "SamplingAccuracy",
    "SamplingAccuracyStage",
    "SamplingSpec",
    "Sink",
    "Source",
    "StoreSink",
    "SummaryJsonSink",
    "TraceSession",
    "as_source",
    "canonical_cags",
    "default_backends",
    "ranked_latency_report",
    "result_digest",
    "verify_equivalence",
]
