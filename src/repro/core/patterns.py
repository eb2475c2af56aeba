"""Causal-path pattern classification (Section 3.2).

CAGs are classified into *causal path patterns*: groups of isomorphic
CAGs whose corresponding vertices are activities of the same type observed
in the same component (hostname + program; process and thread ids are
deliberately ignored because every request may be served by a different
worker).  For each pattern the isomorphic CAGs are aggregated into an
*average causal path*, from which per-component latency percentages are
read.

In a RUBiS-like service different request types (ViewItem, SearchItems,
...) issue different numbers of database round trips and therefore map to
different patterns; the most frequent pattern is the natural target of
performance debugging, mirroring the paper's use of ViewItem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from .latency import LatencyBreakdown, average_breakdown, average_duration
from .shapes import ShapePlan, plan_for, vertex_codes

#: Vertex fingerprint: (activity type name, hostname, program).
VertexSig = Tuple[str, str, str]
#: Edge fingerprint: (kind, parent position, child position) in topological order.
EdgeSig = Tuple[str, int, int]
#: Full pattern signature.
Signature = Tuple[Tuple[VertexSig, ...], Tuple[EdgeSig, ...]]


def _vertex_sig(vertex) -> VertexSig:
    return (vertex.type.name, vertex.context.hostname, vertex.context.program)


def _signature_tie_key(vertex) -> Tuple[str, str, str, float]:
    """Tie-break for concurrently-ready vertices in the signature order.

    The vertex *fingerprint* (type, hostname, program) decides first, so
    two CAGs whose concurrent fan-out branches completed in different
    real-time interleavings -- or were discovered in different orders by
    different correlation backends -- canonicalise to the same vertex
    order whenever the branches are distinguishable by fingerprint, and
    isomorphic requests land in one pattern regardless of scheduling.
    Concurrent vertices sharing a fingerprint fall back to the local
    timestamp (and ultimately to construction order): that keeps the
    order deterministic and backend-independent -- timestamps are data,
    not scheduling -- but it does mean same-fingerprint branches order
    by arrival, so such CAGs canonicalise per interleaving, not per
    abstract graph shape.
    """
    return (*_vertex_sig(vertex), vertex.timestamp)


#: One shared tuple per distinct pattern (a handful per service, so the
#: table stays tiny): every CAG of a pattern points at the same object
#: instead of retaining its own multi-kilobyte copy.
_INTERNED: Dict[Signature, Signature] = {}


def cag_signature(cag: CAG) -> Signature:
    """Canonical isomorphism signature of a CAG.

    Vertices are fingerprinted by (type, hostname, program) and ordered
    topologically, with concurrently-ready vertices ordered by
    fingerprint then timestamp (see :func:`_signature_tie_key`) -- both
    are properties of the logged data, never of how the correlator
    scheduled its work, so the signature is identical across the batch,
    streaming and sharded backends; edges are recorded by the positions
    of their endpoints in that order.  Two CAGs with the same signature
    are isomorphic in the paper's sense.

    Compiled once per *shape* (see :mod:`repro.core.shapes`): the first
    CAG of a labelled structure derives the signature and, when no
    timestamp decided its order, leaves it on the shape's plan, where
    every later CAG of that structure reads it.  A shape whose order a
    timestamp did decide -- two same-fingerprint vertices ready at once
    -- is marked on its plan and each of its CAGs is derived on its own,
    as is a CAG that finds the shape table full.  Either way the result
    is interned and remembered on the CAG (:class:`~repro.core.cag.
    AnalysisMemo`).  A cyclic CAG has no topological order:
    :class:`~repro.core.cag.CAGError` propagates and nothing is cached.
    """
    memo = cag.analysis
    signature = memo.signature
    if signature is None:
        plan = plan_for(cag)
        if plan is not None:
            signature = plan.signature
        if signature is None:
            derived, timestamp_decided = _derive_signature(cag)
            signature = _INTERNED.setdefault(derived, derived)
            if plan is not None:
                if timestamp_decided:
                    plan.timestamp_decided = True
                else:
                    plan.signature = signature
        memo.signature = signature
    return signature


def _derive_signature(cag: CAG) -> Tuple[Signature, bool]:
    """One CAG's signature, and whether a timestamp decided its order."""
    order = cag.topological_positions(tie_key=_signature_tie_key)
    rank = [0] * len(order)
    for index, position in enumerate(order):
        rank[position] = index
    vertices = cag.vertices
    vertex_sigs = tuple(_vertex_sig(vertices[position]) for position in order)
    edge_sigs: List[EdgeSig] = []
    for kind, column in zip((CONTEXT_EDGE, MESSAGE_EDGE), cag.parent_columns):
        for child, parent in enumerate(column):
            if parent >= 0:
                edge_sigs.append((kind, rank[parent], rank[child]))
    edge_sigs.sort()
    return (vertex_sigs, tuple(edge_sigs)), _timestamp_decided(cag, order, rank)


def _timestamp_decided(cag: CAG, order: List[int], rank: List[int]) -> bool:
    """Whether two same-fingerprint vertices were ever ready at once while
    ``order`` was read off -- the one case where the tie-break reaches the
    timestamp, so the order is a property of this CAG, not of its shape.

    A vertex is ready from the pop of its last parent until its own pop.
    Of the same-fingerprint vertices popped before it, the latest one is
    the likeliest to have overlapped with it, so comparing each vertex
    with the previous one of its fingerprint is enough: they were ready
    together exactly when this one already was at that pop.
    """
    codes = vertex_codes(cag.vertices)
    context_parents, message_parents = cag.parent_columns
    last_pop: Dict[int, int] = {}
    for index, position in enumerate(order):
        previous = last_pop.get(codes[position])
        if previous is not None:
            ready_at = -1
            for parent in (context_parents[position], message_parents[position]):
                if parent >= 0 and rank[parent] > ready_at:
                    ready_at = rank[parent]
            if ready_at < previous:
                return True
        last_pop[codes[position]] = index
    return False


@dataclass
class PathPattern:
    """One causal-path pattern: a set of isomorphic CAGs."""

    signature: Signature
    cags: List[CAG] = field(default_factory=list)
    #: (len(cags) it was averaged over, segments) -- the report and the
    #: summary both read the average path of the same finished pattern
    _average: Optional[Tuple[int, Dict[str, float]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def count(self) -> int:
        return len(self.cags)

    @property
    def length(self) -> int:
        """Number of activities per causal path of this pattern."""
        return len(self.signature[0])

    def components(self) -> List[Tuple[str, str]]:
        """Distinct (hostname, program) components along the pattern."""
        return list(
            dict.fromkeys(
                (hostname, program) for _type_name, hostname, program in self.signature[0]
            )
        )

    def average_path(self) -> LatencyBreakdown:
        """The pattern's average causal path, as a latency breakdown
        (computed once per pattern size; each call returns its own copy)."""
        cached = self._average
        if cached is None or cached[0] != len(self.cags):
            cached = self._average = (len(self.cags), average_breakdown(self.cags).segments)
        return LatencyBreakdown(dict(cached[1]))

    def average_latency(self) -> float:
        """Mean end-to-end latency of the pattern's requests."""
        return average_duration(self.cags)

    def describe(self) -> str:
        """Human-readable one-line description of the pattern."""
        programs = [program for _, _, program in self.signature[0]]
        hops = "->".join(programs)
        return f"pattern[{self.count} paths, {self.length} activities]: {hops}"


class PatternClassifier:
    """Group CAGs into patterns and expose them sorted by frequency."""

    def __init__(self) -> None:
        self._patterns: Dict[Signature, PathPattern] = {}
        #: CAGs :meth:`add_all` skipped because they contain a cycle
        self.deformed: int = 0
        # How many classified CAGs resolved to each shape plan (``None``:
        # the shape table was full).
        self._plan_uses: Dict[Optional[ShapePlan], int] = {}

    def add(self, cag: CAG) -> PathPattern:
        signature = cag_signature(cag)
        plan = cag.analysis.plan
        self._plan_uses[plan] = self._plan_uses.get(plan, 0) + 1
        pattern = self._patterns.get(signature)
        if pattern is None:
            pattern = PathPattern(signature=signature)
            self._patterns[signature] = pattern
        pattern.cags.append(cag)
        return pattern

    def add_all(self, cags: Sequence[CAG]) -> None:
        """Classify every CAG; one that is not a DAG (no causal order, so
        no signature) is counted in :attr:`deformed` and left out instead
        of aborting the whole classification."""
        for cag in cags:
            try:
                self.add(cag)
            except CAGError:
                self.deformed += 1

    @property
    def patterns(self) -> List[PathPattern]:
        """All patterns, most frequent first.

        The final tie-break is the signature itself (a nested tuple of
        strings and ints, totally ordered): without it, equally frequent
        equal-length patterns fell back to dict insertion order, which
        is the order the backend *emitted* CAGs in -- so the batch and
        sharded drivers could rank tied patterns differently and the
        ranked-report digests diverged (found by ``repro fuzz``,
        seed 17).
        """
        return sorted(
            self._patterns.values(), key=lambda p: (-p.count, p.length, p.signature)
        )

    def most_frequent(self) -> Optional[PathPattern]:
        patterns = self.patterns
        return patterns[0] if patterns else None

    def shape_counts(self) -> Dict[str, int]:
        """How the classified CAGs got their signature -- "did my workload
        repeat shapes" without a debugger.

        ``shapes`` counts the distinct shape plans they resolved to: one
        structural compile each per process.  ``plan_hits`` counts the
        CAGs that read their signature off a plan instead (every CAG of a
        cacheable shape but its first), ``timestamp_decided`` the CAGs of
        shapes whose order a timestamp decided and ``table_full`` the CAGs
        that found no plan at all -- those two kinds were derived one CAG
        at a time.
        """
        uses = dict(self._plan_uses)
        table_full = uses.pop(None, 0)
        decided = sum(count for plan, count in uses.items() if plan.timestamp_decided)
        cacheable = sum(1 for plan in uses if not plan.timestamp_decided)
        return {
            "shapes": len(uses),
            "plan_hits": sum(uses.values()) - decided - cacheable,
            "timestamp_decided": decided,
            "table_full": table_full,
        }

    def __len__(self) -> int:
        return len(self._patterns)


def classify(cags: Sequence[CAG]) -> List[PathPattern]:
    """Classify ``cags`` into patterns, most frequent first."""
    classifier = PatternClassifier()
    classifier.add_all(cags)
    return classifier.patterns


def dominant_pattern(cags: Sequence[CAG]) -> Optional[PathPattern]:
    """The most frequent pattern of a CAG collection (ViewItem analogue)."""
    classifier = PatternClassifier()
    classifier.add_all(cags)
    return classifier.most_frequent()
