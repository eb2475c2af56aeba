"""PreciseTracer: the top-level public API of the reproduction.

A :class:`PreciseTracer` bundles the whole offline pipeline of Fig. 2:

    raw TCP_TRACE records
        -> attribute noise filter + BEGIN/END classification
        -> ranker (sliding window, Rule 1 / Rule 2, is_noise)
        -> engine (CAG construction)
        -> CAGs
        -> pattern classification, latency percentages, diagnosis

Typical use::

    from repro import PreciseTracer, FrontendSpec

    tracer = PreciseTracer(
        frontends=[FrontendSpec(ip="10.0.0.1", port=80,
                                internal_ips=frozenset({"10.0.0.1", "10.0.0.2"}))],
        window=0.010,
        ignore_programs={"sshd", "rlogind"},
    )
    result = tracer.trace_lines(open("trace.log"))
    for pattern in result.patterns():
        print(pattern.describe())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from .accuracy import AccuracyReport, GroundTruthRequest, path_accuracy
from .activity import Activity
from .cag import CAG
from .correlator import CorrelationResult, Correlator
from .debugging import LatencyProfile
from .latency import LatencyBreakdown, average_breakdown
from .log_format import ActivityClassifier, FrontendSpec, RawRecord
from .patterns import PathPattern, PatternClassifier


@dataclass
class TraceResult:
    """Everything PreciseTracer extracted from one trace."""

    correlation: CorrelationResult
    filtered_records: int = 0
    #: memoised pattern classification -- several analysis consumers
    #: (profiles, ranked reports, summaries) all start from the same
    #: classification of the same immutable CAG set, so it is computed
    #: once per trace
    _patterns: Optional[List[PathPattern]] = field(
        default=None, repr=False, compare=False
    )
    _deformed_paths: int = field(default=0, repr=False, compare=False)
    _shape_counts: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    # -- CAG access ---------------------------------------------------------

    @property
    def cags(self) -> List[CAG]:
        """Completed causal paths (one per traced request)."""
        return self.correlation.cags

    @property
    def incomplete_cags(self) -> List[CAG]:
        """Causal paths whose END was never observed (in-flight or deformed)."""
        return self.correlation.incomplete_cags

    @property
    def request_count(self) -> int:
        return len(self.cags)

    @property
    def correlation_time(self) -> float:
        """Wall-clock seconds the correlator spent (Fig. 9/10/14 metric)."""
        return self.correlation.correlation_time

    @property
    def peak_memory_bytes(self) -> int:
        """Estimated peak working set of the correlator (Fig. 11 metric)."""
        return self.correlation.peak_memory_bytes

    # -- analysis helpers ----------------------------------------------------

    def patterns(self) -> List[PathPattern]:
        """Causal-path patterns, most frequent first (memoised)."""
        if self._patterns is None:
            classifier = PatternClassifier()
            classifier.add_all(self.cags)
            self._patterns = classifier.patterns
            self._deformed_paths = classifier.deformed
            self._shape_counts = classifier.shape_counts()
        return self._patterns

    @property
    def deformed_paths(self) -> int:
        """Finished paths left out of :meth:`patterns` because they are
        not a DAG (a cycle has no causal order to classify)."""
        self.patterns()
        return self._deformed_paths

    @property
    def shape_counts(self) -> Dict[str, int]:
        """How :meth:`patterns` got its signatures: distinct shapes
        compiled, plan hits and the two per-CAG fallbacks (see
        :meth:`~repro.core.patterns.PatternClassifier.shape_counts`)."""
        self.patterns()
        return dict(self._shape_counts)

    def dominant_pattern(self) -> Optional[PathPattern]:
        patterns = self.patterns()
        return patterns[0] if patterns else None

    def profile(self, name: str, use_dominant_pattern: bool = True) -> LatencyProfile:
        """Latency-percentage profile of this trace (Fig. 15/17 rows)."""
        if use_dominant_pattern:
            pattern = self.dominant_pattern()
            if pattern is None:
                return LatencyProfile(name=name, breakdown=LatencyBreakdown())
            return LatencyProfile.from_pattern(name, pattern)
        return LatencyProfile.from_cags(name, self.cags)

    def average_breakdown(self) -> LatencyBreakdown:
        """Average per-segment latency over every completed path."""
        return average_breakdown(self.cags)

    def accuracy(
        self,
        ground_truth: Mapping[int, GroundTruthRequest],
        time_tolerance: float = 1e-6,
    ) -> AccuracyReport:
        """Score the trace against an oracle (Section 5.2)."""
        return path_accuracy(self.cags, ground_truth, time_tolerance=time_tolerance)

    def summary(self) -> Dict[str, float]:
        data = self.correlation.summary()
        data["filtered_records"] = float(self.filtered_records)
        return data


class PreciseTracer:
    """Facade wiring the classifier, the correlator and the analysis layer.

    Parameters
    ----------
    frontends:
        Network-level description of the service entry points, used to
        recognise BEGIN/END activities.
    window:
        Sliding-time-window size in seconds; any positive value works, the
        choice only trades memory/time (Fig. 10/11).
    ignore_programs / ignore_ports / ignore_ips:
        Attribute-based noise filters (Section 4.3, first mechanism).
    """

    def __init__(
        self,
        frontends: Sequence[FrontendSpec],
        window: float = 0.010,
        ignore_programs: Optional[Set[str]] = None,
        ignore_ports: Optional[Set[int]] = None,
        ignore_ips: Optional[Set[str]] = None,
    ) -> None:
        self.frontends = list(frontends)
        self.window = window
        self.ignore_programs = set(ignore_programs or set())
        self.ignore_ports = set(ignore_ports or set())
        self.ignore_ips = set(ignore_ips or set())

    # -- entry points -----------------------------------------------------------

    def trace_lines(self, lines: Iterable[str]) -> TraceResult:
        """Trace from raw TCP_TRACE text lines (possibly several nodes mixed)."""
        return self._trace_text([lines])

    def trace_records(self, records: Iterable[RawRecord]) -> TraceResult:
        """Trace from parsed raw records."""
        classifier = self._make_classifier()
        activities = classifier.classify_all(records)
        result = self._correlate(activities)
        result.filtered_records = classifier.filtered_count
        return result

    def trace_activities(self, activities: Iterable[Activity]) -> TraceResult:
        """Trace from already-classified activities (e.g. from the simulator)."""
        return self._correlate(list(activities))

    def trace_node_logs(self, logs: Mapping[str, Iterable[str]]) -> TraceResult:
        """Trace from per-node log files, the natural shape of gathered logs."""
        return self._trace_text(logs.values())

    # -- internals ---------------------------------------------------------------

    def _trace_text(self, logs: Iterable[Iterable[str]]) -> TraceResult:
        """Strict ingest: a malformed line raises ``LogFormatError``."""
        classifier = self._make_classifier()
        activities: List[Activity] = []
        for lines in logs:
            activities.extend(classifier.classify_lines(lines, strict=True))
        result = self._correlate(activities)
        result.filtered_records = classifier.filtered_count
        return result

    def _make_classifier(self) -> ActivityClassifier:
        return ActivityClassifier(
            frontends=self.frontends,
            ignore_programs=set(self.ignore_programs),
            ignore_ports=set(self.ignore_ports),
            ignore_ips=set(self.ignore_ips),
        )

    def _correlate(self, activities: Sequence[Activity]) -> TraceResult:
        correlator = Correlator(window=self.window)
        correlation = correlator.correlate(activities)
        return TraceResult(correlation=correlation)
