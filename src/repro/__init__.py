"""PreciseTracer reproduction.

A Python reproduction of "Precise Request Tracing and Performance
Debugging for Multi-tier Services of Black Boxes" (Zhang et al., DSN
2009): precise black-box request tracing from kernel-level TCP
send/receive activities, the Component Activity Graph (CAG) abstraction,
latency-percentage performance debugging, and the simulated three-tier
testbed used to reproduce the paper's evaluation.

Quick start::

    from repro import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig("rubis", clients=100))
    trace = result.trace(window=0.010)
    print(trace.request_count, "causal paths reconstructed")
    print(trace.accuracy(result.ground_truth).accuracy)
"""

from .core import (
    AccuracyReport,
    Activity,
    ActivityClassifier,
    ActivityType,
    CAG,
    CAGError,
    ContextId,
    CorrelationEngine,
    CorrelationResult,
    Correlator,
    Diagnosis,
    Edge,
    FrontendSpec,
    GroundTruthRequest,
    LatencyBreakdown,
    LatencyProfile,
    MessageId,
    PathPattern,
    PatternClassifier,
    PreciseTracer,
    Ranker,
    RawRecord,
    SegmentChange,
    TraceResult,
    average_breakdown,
    breakdown_for_cag,
    classify,
    compare_profiles,
    diagnose,
    dominant_pattern,
    parse_record,
    path_accuracy,
    percentage_table,
    profile_series,
)
from .stream import (
    FileTailSource,
    IncrementalEngine,
    ShardedCorrelator,
    StreamingCorrelator,
)
from .pipeline import (
    AccuracyStage,
    BackendSpec,
    CagJsonlSink,
    DiagnosisStage,
    DotSink,
    EquivalenceReport,
    LogSource,
    MemorySource,
    Pipeline,
    ProfileStage,
    RankedLatencyStage,
    RunSource,
    SamplingAccuracyStage,
    SamplingSpec,
    SummaryJsonSink,
    TraceSession,
    verify_equivalence,
)

# The simulation side -- the testbed that *produces* traces -- resolves on
# first use (PEP 562): a tracer reading gathered logs (``repro.core``,
# ``.stream``, ``.store``, ``.pipeline``) then never loads the simulator,
# the topology library or the simulated services.
_SIMULATION_SIDE = {
    "FaultConfig": "services",
    "NoiseConfig": "services",
    "WorkloadStages": "topology",
    "Scenario": "topology",
    "ScenarioConfig": "topology",
    "TierSpec": "topology",
    "TopologyDeployment": "topology",
    "TopologyRunResult": "topology",
    "TopologySpec": "topology",
    "WorkloadSpec": "topology",
    "get_scenario": "topology",
    "run_scenario": "topology",
    "scenario_names": "topology",
}


def __getattr__(name: str):
    module = _SIMULATION_SIDE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # next time it is an ordinary module attribute
    return value


def __dir__():
    return sorted(set(globals()) | set(_SIMULATION_SIDE))


__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AccuracyStage",
    "Activity",
    "ActivityClassifier",
    "ActivityType",
    "BackendSpec",
    "CAG",
    "CAGError",
    "CagJsonlSink",
    "ContextId",
    "CorrelationEngine",
    "CorrelationResult",
    "Correlator",
    "Diagnosis",
    "DiagnosisStage",
    "DotSink",
    "Edge",
    "EquivalenceReport",
    "FaultConfig",
    "FileTailSource",
    "FrontendSpec",
    "GroundTruthRequest",
    "IncrementalEngine",
    "LatencyBreakdown",
    "LatencyProfile",
    "LogSource",
    "MemorySource",
    "MessageId",
    "NoiseConfig",
    "PathPattern",
    "PatternClassifier",
    "Pipeline",
    "PreciseTracer",
    "ProfileStage",
    "RankedLatencyStage",
    "Ranker",
    "RawRecord",
    "RunSource",
    "SamplingAccuracyStage",
    "SamplingSpec",
    "Scenario",
    "ScenarioConfig",
    "SegmentChange",
    "ShardedCorrelator",
    "StreamingCorrelator",
    "SummaryJsonSink",
    "TierSpec",
    "TopologyDeployment",
    "TopologyRunResult",
    "TopologySpec",
    "TraceResult",
    "TraceSession",
    "WorkloadSpec",
    "WorkloadStages",
    "__version__",
    "average_breakdown",
    "breakdown_for_cag",
    "classify",
    "compare_profiles",
    "diagnose",
    "dominant_pattern",
    "parse_record",
    "path_accuracy",
    "percentage_table",
    "profile_series",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "verify_equivalence",
]
