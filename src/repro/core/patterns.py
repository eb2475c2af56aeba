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

from .cag import CAG, CAGError
from .latency import LatencyBreakdown, average_breakdown, average_duration

#: Vertex fingerprint: (activity type name, hostname, program).
VertexSig = Tuple[str, str, str]
#: Edge fingerprint: (kind, parent position, child position) in topological order.
EdgeSig = Tuple[str, int, int]
#: Full pattern signature.
Signature = Tuple[Tuple[VertexSig, ...], Tuple[EdgeSig, ...]]


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
    return (
        vertex.type.name,
        vertex.context.hostname,
        vertex.context.program,
        vertex.timestamp,
    )


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

    Derived once per CAG structure (see :class:`~repro.core.cag.
    AnalysisMemo`) and interned.  A cyclic CAG has no topological order:
    :class:`~repro.core.cag.CAGError` propagates and nothing is cached.
    """
    memo = cag.analysis
    signature = memo.signature
    if signature is None:
        derived = _derive_signature(cag)
        signature = memo.signature = _INTERNED.setdefault(derived, derived)
    return signature


def _derive_signature(cag: CAG) -> Signature:
    order = cag.topological_order(tie_key=_signature_tie_key)
    position = {id(vertex): index for index, vertex in enumerate(order)}
    vertex_sigs: Tuple[VertexSig, ...] = tuple(
        (vertex.type.name, vertex.context.hostname, vertex.context.program)
        for vertex in order
    )
    edge_sigs = tuple(
        sorted(
            (edge.kind, position[id(edge.parent)], position[id(edge.child)])
            for edge in cag.edges
        )
    )
    return (vertex_sigs, edge_sigs)


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

    def add(self, cag: CAG) -> PathPattern:
        signature = cag_signature(cag)
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
