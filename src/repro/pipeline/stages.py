"""Pluggable analysis stages: what a pipeline computes from a trace.

Once a backend has turned activities into a
:class:`~repro.core.tracer.TraceResult`, any number of *stages* run over
it.  A stage is a small named object with ``run(session) -> result``; the
session exposes the trace and the source (for ground truth), and collects
every stage's result under its name (``session.analyses["accuracy"]``).

The built-in stages cover the paper's analysis repertoire:

=======================  ==================================================
:class:`RankedLatencyStage`  the ranked latency report -- per-pattern
                         latency percentages, most frequent pattern first
                         (Fig. 15/17 rows)
:class:`PatternStage`    causal-path pattern mining (Section 3.2)
:class:`BreakdownStage`  average per-segment :class:`LatencyBreakdown`
                         over every completed path
:class:`AccuracyStage`   accuracy vs. the source's ground truth
                         (Section 5.2; needs a simulation source)
:class:`DiagnosisStage`  latency-percentage comparison against a
                         reference profile (Section 5.4 fault diagnosis)
:class:`SamplingAccuracyStage`  fidelity of a *sampled* run's ranked
                         latency report against the full (unsampled)
                         report on the same source
=======================  ==================================================

Custom stages are plain objects: anything with ``name`` and
``run(session)`` participates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..core.accuracy import AccuracyReport
from ..core.debugging import Diagnosis, LatencyProfile, diagnose
from ..core.latency import LatencyBreakdown
from ..core.patterns import PathPattern
from ..sampling import SamplingAccuracy, compare_sampled_reports


class AnalysisStage:
    """Base class (optional -- duck typing suffices) for analysis stages."""

    #: key under which the result lands in ``session.analyses``
    name: str = "stage"

    def run(self, session):  # pragma: no cover - interface
        raise NotImplementedError


class RankedLatencyStage(AnalysisStage):
    """The paper's ranked latency report: per-pattern percentage rows,
    most frequent pattern first."""

    name = "ranked_latency"

    def __init__(self, top: Optional[int] = None) -> None:
        self.top = top

    def run(self, session) -> List[Dict[str, object]]:
        patterns = session.trace.patterns()
        if self.top is not None:
            patterns = patterns[: self.top]
        rows: List[Dict[str, object]] = []
        for rank, pattern in enumerate(patterns, start=1):
            breakdown = pattern.average_path()
            rows.append(
                {
                    "rank": rank,
                    "paths": pattern.count,
                    "activities_per_path": pattern.length,
                    "components": [
                        "/".join(component) for component in pattern.components()
                    ],
                    "average_latency_s": pattern.average_latency(),
                    "percentages": breakdown.percentages(),
                }
            )
        return rows


class PatternStage(AnalysisStage):
    """Causal-path pattern mining: the classified patterns themselves."""

    name = "patterns"

    def __init__(self, top: Optional[int] = None) -> None:
        self.top = top

    def run(self, session) -> List[PathPattern]:
        patterns = session.trace.patterns()
        return patterns if self.top is None else patterns[: self.top]


class BreakdownStage(AnalysisStage):
    """Average per-segment latency breakdown over every completed path."""

    name = "breakdown"

    def run(self, session) -> LatencyBreakdown:
        return session.trace.average_breakdown()


class AccuracyStage(AnalysisStage):
    """Score the trace against the source's ground truth (Section 5.2)."""

    name = "accuracy"

    def __init__(self, time_tolerance: float = 1e-6) -> None:
        self.time_tolerance = time_tolerance

    def run(self, session) -> AccuracyReport:
        truth = session.source.ground_truth
        if truth is None:
            raise ValueError(
                "AccuracyStage needs a source with ground truth "
                f"(got {session.source.describe()}); use a simulation "
                "source or pass ground_truth to MemorySource"
            )
        return session.trace.accuracy(truth, time_tolerance=self.time_tolerance)


class ProfileStage(AnalysisStage):
    """Latency-percentage profile of the dominant pattern (Fig. 15/17)."""

    name = "profile"

    def __init__(self, label: str = "trace", use_dominant_pattern: bool = True) -> None:
        self.label = label
        self.use_dominant_pattern = use_dominant_pattern

    def run(self, session) -> LatencyProfile:
        return session.trace.profile(
            self.label, use_dominant_pattern=self.use_dominant_pattern
        )


class DiagnosisStage(AnalysisStage):
    """Compare this trace's profile to a healthy reference and rank the
    suspected components (Section 5.4's fault-diagnosis workflow).

    ``reference`` is a :class:`LatencyProfile` or a completed
    :class:`~repro.pipeline.TraceSession` that ran a :class:`ProfileStage`
    (its profile is reused).
    """

    name = "diagnosis"

    def __init__(
        self,
        reference: Union[LatencyProfile, "object"],
        threshold: float = 5.0,
        label: str = "observed",
    ) -> None:
        self.reference = reference
        self.threshold = threshold
        self.label = label

    def _reference_profile(self) -> LatencyProfile:
        if isinstance(self.reference, LatencyProfile):
            return self.reference
        analyses = getattr(self.reference, "analyses", None)
        if analyses and ProfileStage.name in analyses:
            return analyses[ProfileStage.name]
        trace = getattr(self.reference, "trace", None)
        if trace is not None:
            return trace.profile("reference")
        raise TypeError(
            "DiagnosisStage reference must be a LatencyProfile or a "
            "TraceSession (with or without a ProfileStage result)"
        )

    def run(self, session) -> Diagnosis:
        # Reuse the session's own ProfileStage result when one ran; the
        # profile of a trace is label-independent apart from its name.
        observed = session.analyses.get(ProfileStage.name)
        if observed is None:
            observed = session.trace.profile(self.label)
        return diagnose(
            self._reference_profile(), observed, threshold=self.threshold
        )


class SamplingAccuracyStage(AnalysisStage):
    """How faithful is this sampled trace's report to the full one?

    Re-correlates the session's own source through the same backend with
    sampling disabled (the reference run) and scores the session's
    ranked latency report against it: pattern coverage and the
    dominant-profile drift -- see
    :func:`repro.sampling.compare_sampled_reports`.

    The stage deliberately pays for one full correlation pass; it is an
    evaluation tool (the ``sampling`` figure is built on it), not
    something to leave in a production pipeline.  On a session whose
    backend has no sampling configured it degenerates to comparing a
    report against itself (coverage 1.0, distance 0.0).
    """

    name = "sampling_accuracy"

    def run(self, session) -> SamplingAccuracy:
        reference_backend = session.backend.with_overrides(sampling=None)
        full = reference_backend.run(session.source).correlation
        return compare_sampled_reports(full.cags, session.trace.cags)
