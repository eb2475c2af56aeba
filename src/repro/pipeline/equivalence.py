"""Backend equivalence as a first-class API.

The repo's central invariant -- batch, streaming and sharded correlation
produce **identical** results (same finished CAGs, same edge multisets,
same ranked latency report) on any trace, as long as streaming eviction
is disabled or generous -- used to live only in test helpers.  This
module makes it a queryable property of the pipeline:

* :func:`canonical_cags` / :func:`ranked_latency_report` -- the
  order-independent fingerprints the equivalence is defined over;
* :func:`result_digest` -- one SHA-256 hex digest of both fingerprints,
  stable across processes and Python versions, suitable for golden-file
  pinning;
* :func:`verify_equivalence` -- run one source through several backends
  and compare: returns an :class:`EquivalenceReport` (per-backend digest
  and CAG counts, mismatch list), which can also :meth:`~
  EquivalenceReport.require` itself into an exception for use as a gate.

Why fingerprints instead of ``==`` on results: the drivers legitimately
differ in wall-clock timing, peak-memory accounting and emission order,
so equivalence is defined over what the paper cares about -- the causal
paths and the ranked report -- not over every bookkeeping counter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.activity import ActivityType
from ..core.cag import CAG, CONTEXT_EDGE, MESSAGE_EDGE
from ..core.correlator import CorrelationResult
from ..core.patterns import PatternClassifier
from .backends import BackendSpec, default_backends
from .sources import Source, as_source


#: ``ActivityType`` name by type value.
_TYPE_NAMES = tuple(kind.name for kind in ActivityType)


def _fingerprint(activity) -> Tuple:
    """Identity of one vertex: everything the paper logs about it.

    Built from the original string/tuple identity (never the interned
    ``context_key`` int, which is an artefact of one run's key space) so
    the golden digests stay byte-identical across runs and refactors.
    """
    return (
        activity.type.name,
        round(activity.timestamp, 9),
        activity.context.as_tuple(),
        activity.message.connection_key(),
        activity.size,
    )


def _vertex_fingerprints(cag: CAG) -> List[Tuple]:
    """:func:`_fingerprint` of every vertex, by position, read off the
    CAG's columns and its key space: a finished CAG builds no vertex.
    Its END's size is the kept object's, which grows when a response is
    flushed in several writes after the CAG finished."""
    contexts, connections = cag.keys.contexts, cag.keys.connections
    kinds = cag.column("priority")
    sizes = list(cag.column("size"))
    end = cag.end_activity
    if end is not None:
        sizes[len(kinds) - 1 - kinds[::-1].index(ActivityType.END)] = end.size
    return [
        (_TYPE_NAMES[kind], round(timestamp, 9), contexts[ckey].as_tuple(), connections[mkey], size)
        for kind, timestamp, ckey, mkey, size in zip(
            kinds,
            cag.column("timestamp"),
            cag.column("context_key"),
            cag.column("message_key"),
            sizes,
        )
    ]


def canonical_cags(cags: Iterable[CAG]) -> List[Tuple]:
    """Order-independent fingerprint: one (root, edge-multiset) per CAG.

    Two CAG collections are *the same reconstruction* exactly when their
    canonical forms are equal -- regardless of driver, emission order or
    vertex object identity.
    """
    shapes = []
    for cag in cags:
        fingerprints = _vertex_fingerprints(cag)
        edges = sorted(
            (kind, fingerprints[parent], fingerprints[child])
            for kind, column in zip((CONTEXT_EDGE, MESSAGE_EDGE), cag.parent_columns)
            for child, parent in enumerate(column)
            if parent >= 0
        )
        shapes.append((fingerprints[0], tuple(edges)))
    return sorted(shapes)


def ranked_latency_report(cags: Iterable[CAG]) -> List[Tuple]:
    """(pattern signature, count, rounded percentages) rows, most frequent
    first -- the paper's ranked latency-percentage report."""
    classifier = PatternClassifier()
    classifier.add_all(list(cags))
    report = []
    for pattern in classifier.patterns:
        percentages = tuple(
            (label, round(value, 6))
            for label, value in sorted(pattern.average_path().percentages().items())
        )
        report.append((pattern.signature, pattern.count, percentages))
    return report


def result_digest(result: CorrelationResult) -> str:
    """SHA-256 hex digest of a result's canonical CAGs + ranked report.

    Built from ``repr`` of the canonical structures: every element is a
    nested tuple of strings, ints and round()-ed floats, whose reprs are
    deterministic on every supported Python, so the digest is stable
    across processes, platforms and versions -- the property the golden
    pinning in ``tests/golden_pipeline_digests.json`` relies on.
    """
    payload = (
        canonical_cags(result.cags),
        canonical_cags(result.incomplete_cags),
        ranked_latency_report(result.cags),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass
class BackendOutcome:
    """What one backend produced for the equivalence check."""

    backend: BackendSpec
    digest: str
    cag_count: int
    incomplete_count: int
    correlation_time: float
    #: the full result, retained only when ``verify_equivalence`` is
    #: called with ``keep_results=True`` (the fuzz harness inspects the
    #: engine counters of every backend, not just the digest)
    result: Optional[CorrelationResult] = None

    @property
    def kind(self) -> str:
        return self.backend.kind


class EquivalenceError(AssertionError):
    """Raised by :meth:`EquivalenceReport.require` on a mismatch."""


@dataclass
class EquivalenceReport:
    """Outcome of one :func:`verify_equivalence` run."""

    source: str
    outcomes: List[BackendOutcome] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return len({outcome.digest for outcome in self.outcomes}) <= 1

    @property
    def digest(self) -> Optional[str]:
        """The shared digest (``None`` when the backends disagree)."""
        digests = {outcome.digest for outcome in self.outcomes}
        return digests.pop() if len(digests) == 1 else None

    def mismatches(self) -> List[BackendOutcome]:
        """Backends that diverge from the first (reference) backend."""
        if not self.outcomes:
            return []
        reference = self.outcomes[0].digest
        return [o for o in self.outcomes if o.digest != reference]

    def require(self) -> "EquivalenceReport":
        """Raise :class:`EquivalenceError` unless every backend agreed."""
        if not self.equivalent:
            raise EquivalenceError(self.describe())
        return self

    def describe(self) -> str:
        lines = [
            f"backend equivalence on {self.source}: "
            + ("IDENTICAL" if self.equivalent else "MISMATCH")
        ]
        for outcome in self.outcomes:
            lines.append(
                f"  {outcome.backend.describe():50s} "
                f"cags={outcome.cag_count} "
                f"incomplete={outcome.incomplete_count} "
                f"digest={outcome.digest[:16]}"
            )
        return "\n".join(lines)


def verify_equivalence(
    source,
    backends: Optional[Sequence[BackendSpec]] = None,
    window: float = 0.010,
    skew_bound: float = 0.005,
    sampling=None,
    keep_results: bool = False,
) -> EquivalenceReport:
    """Run one source through several backends and compare the results.

    ``source`` is anything :func:`~repro.pipeline.sources.as_source`
    accepts; every backend reads the source's packed rows and builds
    the objects it correlates, so no pass sees another's.  ``backends``
    defaults to one spec per kind -- batch, streaming (eviction disabled, so equivalence is
    exact by construction), sharded -- at the shared ``window``.
    ``sampling`` (a :class:`~repro.sampling.SamplingSpec`) extends the
    default matrix to sampled runs: the sampler decides at the causal
    root by deterministic hashing, so every backend admits the identical
    request subset and the digests still match.  ``keep_results=True``
    retains each backend's full :class:`CorrelationResult` on its
    outcome, so callers (the fuzz harness) can check engine-state
    conservation laws on top of the digests.

    Returns the report; chain ``.require()`` to use it as a hard gate::

        verify_equivalence(run, window=0.010).require()
    """
    resolved: Source = as_source(source)
    if backends is None:
        backends = default_backends(
            window=window, skew_bound=skew_bound, sampling=sampling
        )
    report = EquivalenceReport(source=resolved.describe())
    for spec in backends:
        result = spec.run(resolved).correlation
        report.outcomes.append(
            BackendOutcome(
                backend=spec,
                digest=result_digest(result),
                cag_count=len(result.cags),
                incomplete_count=len(result.incomplete_cags),
                correlation_time=result.correlation_time,
                result=result if keep_results else None,
            )
        )
    return report
