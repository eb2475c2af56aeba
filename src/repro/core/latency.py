"""Latency extraction from CAGs (Section 3.2).

Given a CAG, the time between consecutive activities along the causal
path is attributed either to a *component* (context edge: both activities
happened in the same program on the same node, e.g. ``httpd2httpd``) or to
an *interaction* between two components (message edge, e.g.
``httpd2java``).  Summing per label and normalising by the end-to-end
latency yields the "latency percentages of components" the paper uses for
performance debugging (Fig. 15 and Fig. 17).

Component latencies are exact (one local clock); interaction latencies
embed the clock skew between the two nodes, which the paper explicitly
accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .activity import Activity
from .cag import CAG, Edge
from .shapes import PathRow, plan_for


def component_label(program: str) -> str:
    """Short label of a component used in segment names.

    The paper labels segments with the program names of the components
    (``httpd``, ``java`` for the JBoss JVM, ``mysqld``); we simply reuse
    the program name reported in the context identifier.
    """
    return program


def segment_label(edge: Edge) -> str:
    """The segment name of one causal-path edge.

    * context edge inside program P  ->  ``P2P``      (component latency)
    * message edge from P to Q       ->  ``P2Q``      (interaction latency)
    """
    return _label(edge.parent, edge.child)


def _label(parent: Activity, child: Activity) -> str:
    parent_program = component_label(parent.context.program)
    child_program = component_label(child.context.program)
    return f"{parent_program}2{child_program}"


@dataclass
class LatencyBreakdown:
    """Per-segment latency of one causal path (or an average of many)."""

    segments: Dict[str, float] = field(default_factory=dict)

    def add(self, label: str, latency: float) -> None:
        self.segments[label] = self.segments.get(label, 0.0) + latency

    @property
    def total(self) -> float:
        return sum(self.segments.values())

    def percentage(self, label: str) -> float:
        """Latency percentage of one segment (0-100)."""
        total = self.total
        if total <= 0:
            return 0.0
        return 100.0 * self.segments.get(label, 0.0) / total

    def percentages(self) -> Dict[str, float]:
        """All segment percentages, keyed by label."""
        total = self.total
        if total <= 0:
            return {label: 0.0 for label in self.segments}
        return {
            label: 100.0 * value / total for label, value in self.segments.items()
        }

    def labels(self) -> List[str]:
        return sorted(self.segments)

    def merge(self, other: "LatencyBreakdown", weight: float = 1.0) -> None:
        for label, value in other.segments.items():
            self.add(label, value * weight)

    def scaled(self, factor: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            {label: value * factor for label, value in self.segments.items()}
        )

    def as_dict(self) -> Dict[str, float]:
        return dict(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


def breakdown_for_cag(cag: CAG) -> LatencyBreakdown:
    """Compute the per-segment latency of a single request's CAG.

    The accounting walks the *primary path* (each vertex reached through
    its message parent when one exists, its context parent otherwise), so
    the round-trip time observed by an upstream component is decomposed
    into downstream component and interaction times instead of being
    double counted.

    The walk happens once per CAG structure (see :class:`~repro.core.cag.
    AnalysisMemo`); each call returns its own :class:`LatencyBreakdown`.
    """
    return LatencyBreakdown(dict(_segments_for_cag(cag)))


def _segments_for_cag(cag: CAG) -> Dict[str, float]:
    """The memoised label -> seconds map behind :func:`breakdown_for_cag`
    (shared, so read-only for callers).

    Which edges form the primary path, and what each is labelled, is the
    same for every CAG of one shape, so it is read from the shape's plan
    (:mod:`repro.core.shapes`) and only the timestamps are this CAG's."""
    memo = cag.analysis
    segments = memo.segments
    if segments is None:
        plan = plan_for(cag)
        path = plan.path if plan is not None else None
        if path is None:
            path = _path_rows(cag)
            if plan is not None:
                plan.path = path
        timestamps = [vertex.timestamp for vertex in cag.vertices]
        segments = {}
        for child, parent, label in path:
            latency = timestamps[child] - timestamps[parent]
            if latency < 0:
                # A negative value can only come from clock skew on a
                # message edge; clamp at zero so a skewed pair cannot
                # produce negative percentages (the paper accepts this
                # imprecision).
                latency = 0.0
            segments[label] = segments.get(label, 0.0) + latency
        memo.segments = segments
    return segments


def _path_rows(cag: CAG) -> Tuple[PathRow, ...]:
    """The primary path as positions plus each step's segment label."""
    vertices = cag.vertices
    return tuple(
        (child, parent, _label(vertices[parent], vertices[child]))
        for child, parent, _kind in cag.primary_positions()
    )


def average_breakdown(cags: Sequence[CAG]) -> LatencyBreakdown:
    """Average per-segment latencies over a set of (isomorphic) CAGs.

    This is the paper's "average causal path" (Section 3.2): aggregate n
    isomorphic CAGs, average each segment, then read off percentages.
    """
    aggregate = LatencyBreakdown()
    if not cags:
        return aggregate
    for cag in cags:
        for label, value in _segments_for_cag(cag).items():
            aggregate.add(label, value)
    return aggregate.scaled(1.0 / len(cags))


def average_duration(cags: Sequence[CAG]) -> float:
    """Mean end-to-end latency (frontend-observed) of a set of CAGs."""
    durations = [duration for duration in (cag.duration() for cag in cags) if duration is not None]
    if not durations:
        return 0.0
    return sum(durations) / len(durations)


def percentage_table(
    breakdowns: Mapping[str, LatencyBreakdown],
    labels: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Build a {series -> {segment -> percentage}} table.

    This is the shape of Fig. 15 (series = client count) and Fig. 17
    (series = fault scenario).  When ``labels`` is omitted the union of
    all segment labels is used, in sorted order.
    """
    if labels is None:
        all_labels = set()
        for breakdown in breakdowns.values():
            all_labels.update(breakdown.segments)
        labels = sorted(all_labels)
    table: Dict[str, Dict[str, float]] = {}
    for series, breakdown in breakdowns.items():
        percentages = breakdown.percentages()
        table[series] = {label: percentages.get(label, 0.0) for label in labels}
    return table
