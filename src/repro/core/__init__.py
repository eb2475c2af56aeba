"""Core of the PreciseTracer reproduction.

This package contains the paper's primary contribution: the precise
request-tracing algorithm (ranker + engine), the Component Activity Graph
abstraction, and the analysis layer built on top of it (pattern
classification, latency percentages, performance debugging, accuracy
scoring).  The ranker -> engine loop is one class,
:class:`~repro.core.correlator.IncrementalEngine`; every correlation
backend (:class:`repro.pipeline.BackendSpec`) drives it, and its
:class:`CorrelationResult` reaches analysis code as a
:class:`TraceResult`.
"""

from .accuracy import AccuracyReport, GroundTruthRequest, PathJudgement, path_accuracy
from .activity import Activity, ActivityType, ContextId, MessageId, RULE2_PRIORITY
from .cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from .correlator import CorrelationResult
from .debugging import (
    Diagnosis,
    LatencyProfile,
    SegmentChange,
    compare_profiles,
    diagnose,
    profile_series,
)
from .engine import CorrelationEngine, EngineStats
from .export import cag_to_dict, cag_to_dot, cag_to_json, trace_summary, trace_summary_json
from .latency import (
    LatencyBreakdown,
    average_breakdown,
    average_duration,
    breakdown_for_cag,
    percentage_table,
)
from .log_format import (
    ActivityClassifier,
    FrontendSpec,
    LogFormatError,
    RawRecord,
    format_record,
    load_activities,
    parse_log,
    parse_record,
)
from .patterns import PathPattern, PatternClassifier, cag_signature, classify, dominant_pattern
from .ranker import Ranker, RankerStats
from .tracer import TraceResult

__all__ = [
    "AccuracyReport",
    "Activity",
    "ActivityClassifier",
    "ActivityType",
    "CAG",
    "CAGError",
    "CONTEXT_EDGE",
    "ContextId",
    "CorrelationEngine",
    "CorrelationResult",
    "Diagnosis",
    "EngineStats",
    "FrontendSpec",
    "GroundTruthRequest",
    "LatencyBreakdown",
    "LatencyProfile",
    "LogFormatError",
    "MESSAGE_EDGE",
    "MessageId",
    "PathJudgement",
    "PathPattern",
    "PatternClassifier",
    "RULE2_PRIORITY",
    "Ranker",
    "RankerStats",
    "RawRecord",
    "SegmentChange",
    "TraceResult",
    "average_breakdown",
    "average_duration",
    "breakdown_for_cag",
    "cag_signature",
    "cag_to_dict",
    "cag_to_dot",
    "cag_to_json",
    "trace_summary",
    "trace_summary_json",
    "classify",
    "compare_profiles",
    "diagnose",
    "dominant_pattern",
    "format_record",
    "load_activities",
    "parse_log",
    "parse_record",
    "path_accuracy",
    "percentage_table",
    "profile_series",
]
