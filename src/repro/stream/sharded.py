"""Sharded correlation: partition the trace, correlate each shard alone.

Correlation decisions only ever relate activities through two keys: the
*context identifier* (adjacent-context edges, ``cmap``) and the
*connection 4-tuple* (message edges, ``mmap``).  Treating both key kinds
as nodes of one graph -- with an edge between an activity's context key
and its connection key -- the connected components of that graph are
exactly the finest partition of the trace that is **causally closed**: no
context or message relation can cross a component boundary.  Each
component can therefore be correlated completely independently, and the
union of the per-shard results is *identical* to the batch result.

:func:`partition_components` computes those components with a
union-find pass; :func:`partition_activities` packs them cost-aware (LPT
by activity count, see :mod:`repro.stream.scheduler`) into at most
``max_shards`` buckets -- any union of components is still causally
closed; :class:`ShardedCorrelator` runs one correlation task per bucket
on a thread pool and gathers the per-shard results through an
associative **merge tree** back into one
:class:`~repro.core.correlator.CorrelationResult`.

That is the only assignment policy: in the 18-cell scaling baseline that
retired the alternatives, work stealing fired 2 times in total and LPT's
makespan was half the round-robin fold's at 2 and 4 shards (0.086 vs
0.155 s, 0.059 vs 0.120 s) -- see :mod:`repro.stream.scheduler`.

Because the gather is associative and every merge step keeps the CAG
lists canonically ordered (by BEGIN timestamp, then creation sequence),
the merged output is byte-identical whatever order shards complete in --
the property the cross-backend golden digests pin down.

Two practical notes:

* Shard count is workload-dependent.  Components merge whenever requests
  share an execution entity or a connection, so a service with heavily
  recycled worker pools and persistent connections may collapse into few
  components (in the degenerate case, one -- then sharding gracefully
  reduces to the batch path, still correct, just not parallel).  Client
  churn, per-request connections and multi-frontend deployments shard
  well.
* This is an equivalence backend, not a scale-out engine.  Shards run on
  a thread pool, which shares the Python runtime, so on CPython the GIL
  serialises the pure-Python work and no trace the repository produces
  runs faster sharded than batch: at 300-400 clients the ``rubis``,
  ``five_tier_chain``, ``cache_aside`` and ``fanout_aggregator`` traces
  are each one component, and ``replicated_lb`` at 150 req/s open-loop
  (112 k activities, 3 components) took 1.08 s batch against 1.18-1.39 s
  on threads (a process pool, since retired, took 3.1-3.8 s).  What the
  backend buys is a second, independently structured route to the batch
  result -- and the partitioning is the seam a distributed driver would
  use to place shards on different machines.  A shard is a table of
  rows, and each run builds the objects it delivers, so a caller's
  activity objects are never touched.
"""

from __future__ import annotations

import os
import time
from dataclasses import fields, replace
from heapq import merge as _heap_merge
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.activity import Activity
from ..core.correlator import CorrelationResult, Correlator
from ..core.engine import EngineStats
from ..core.interning import ActivityTable, as_table
from ..core.ranker import RankerStats
from .scheduler import pack_lpt


class _UnionFind:
    """Union-find over arbitrary hashable keys (path halving + rank)."""

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}

    def find(self, key: Hashable) -> Hashable:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            self._rank.setdefault(key, 0)
            return key
        root = key
        while self._parent[root] != root:
            self._parent[root] = self._parent[self._parent[root]]
            root = self._parent[root]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1


Trace = Union[Iterable[Activity], ActivityTable]


def _component_rows(table: ActivityTable) -> List[List[int]]:
    """Row indices of each causally-closed component, in first-seen order.

    Each row links its context key and its (undirected) connection key
    in a union-find; the rows of one connected component keep their
    relative order.
    """
    uf = _UnionFind()
    # Build each row's graph keys once and reuse them for the find pass
    # -- tuple construction is the dominant cost of partitioning a large
    # trace.
    ctx_keys = [("ctx", ckey) for ckey in table._ckeys]
    for ctx, message in zip(ctx_keys, table._messages):
        uf.union(ctx, ("conn", message.undirected_key()))

    by_component: Dict[Hashable, List[int]] = {}
    for row, ctx in enumerate(ctx_keys):
        by_component.setdefault(uf.find(ctx), []).append(row)
    return list(by_component.values())


def partition_components(activities: Trace) -> List[ActivityTable]:
    """The causally-closed components of a trace (packed rows, or
    objects packed here), in first-seen order, one table each.

    This is the finest causally-closed partition --
    :func:`partition_activities` packs *these*.
    """
    table = as_table(activities)
    return [table.take(rows) for rows in _component_rows(table)]


def partition_activities(
    activities: Trace,
    max_shards: Optional[int] = None,
) -> List[ActivityTable]:
    """Split a trace into at most ``max_shards`` causally-closed shards,
    each a :meth:`~repro.core.interning.ActivityTable.take` of its rows.

    With ``max_shards`` unset (or at least the component count) every
    component is its own shard.  Above it, components are weighted by
    activity count and packed LPT-greedily (heaviest first onto the
    lightest bucket, ties by earliest-activity order then bucket index;
    :func:`repro.stream.scheduler.pack_lpt`), which balances bucket
    *costs* and keeps the causal-closure property (a bucket is a union
    of components).  Bucket assignment is deterministic for a given
    trace but not stable across traces -- adding or removing a component
    may shift other components' buckets.
    """
    table = as_table(activities)
    components = _component_rows(table)
    if max_shards is not None and 0 < max_shards < len(components):
        stamps, seqs = table._timestamps, table._seqs
        components.sort(key=lambda rows: (stamps[rows[0]], seqs[rows[0]]))
        weights = [len(rows) for rows in components]
        components = [
            [row for index in members for row in components[index]]
            for members in pack_lpt(weights, max_shards)
        ]
    return [table.take(rows) for rows in components]


def _sum_stats(cls, parts):
    """Field-wise sum of same-typed stats dataclasses."""
    merged = cls()
    for part in parts:
        for f in fields(cls):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(part, f.name))
    return merged


def merge_engine_stats(parts: Sequence[EngineStats]) -> EngineStats:
    """Sum per-shard engine counters into one report."""
    return _sum_stats(EngineStats, parts)


def merge_ranker_stats(parts: Sequence[RankerStats]) -> RankerStats:
    """Combine per-shard ranker counters (sums; ``max_buffered`` is the
    concurrent worst case, so shard maxima are *summed* too -- every shard
    may sit at its peak at the same instant)."""
    return _sum_stats(RankerStats, parts)


def _cag_order(cag) -> Tuple[float, int]:
    """Canonical CAG order: BEGIN timestamp, then creation sequence."""
    return (cag.begin_timestamp, cag.root.seq)


def canonical_part(part: CorrelationResult) -> CorrelationResult:
    """A shard result with its CAG lists in canonical order.

    Canonicalising each leaf once is what makes :func:`merge_pair` a
    linear two-way list merge, and what makes the whole gather
    *associative*: every intermediate result is canonically ordered, so
    any merge tree over the same leaves produces the same lists.
    """
    return replace(
        part,
        cags=sorted(part.cags, key=_cag_order),
        incomplete_cags=sorted(part.incomplete_cags, key=_cag_order),
    )


def merge_pair(a: CorrelationResult, b: CorrelationResult) -> CorrelationResult:
    """Merge two canonically-ordered partial results into one.

    Every field combines associatively: CAG lists by ordered two-way
    merge, stats and peak counters by field-wise sum (peaks are summed
    because all shards are resident at once in the parallel driver --
    the honest concurrent working-set bound), ``correlation_time`` by
    sum (total busy time; the driver overwrites the final result's value
    with the wall-clock elapsed).  Commutative too, apart from the
    stable tie-break of equal sort keys -- which cannot occur across
    shards, since ``seq`` is globally unique.
    """
    return replace(
        a,
        cags=list(_heap_merge(a.cags, b.cags, key=_cag_order)),
        incomplete_cags=list(
            _heap_merge(a.incomplete_cags, b.incomplete_cags, key=_cag_order)
        ),
        correlation_time=a.correlation_time + b.correlation_time,
        peak_buffered_activities=a.peak_buffered_activities
        + b.peak_buffered_activities,
        peak_state_entries=a.peak_state_entries + b.peak_state_entries,
        ranker_stats=merge_ranker_stats([a.ranker_stats, b.ranker_stats]),
        engine_stats=merge_engine_stats([a.engine_stats, b.engine_stats]),
        total_activities=a.total_activities + b.total_activities,
        final_state_entries=a.final_state_entries + b.final_state_entries,
        final_open_tombstones=a.final_open_tombstones + b.final_open_tombstones,
        materialised_activities=a.materialised_activities
        + b.materialised_activities,
    )


class MergeTree:
    """Incremental pairwise reduction of shard results.

    Results are pushed as they complete; the tree keeps at most
    ``log2(pushed)`` partial results alive (the classic binary-counter
    fold: a completed pair merges immediately, freeing both halves), so
    the driver never serialises O(shards) merge work at the end and
    never holds every unmerged part at once.  Because :func:`merge_pair`
    is associative over canonical parts, the final result is independent
    of completion order -- :func:`merge_results` relies on exactly that.
    """

    def __init__(self) -> None:
        # _levels[rank] holds at most one partial result of 2**rank leaves.
        self._levels: List[Optional[CorrelationResult]] = []

    def push(self, part: CorrelationResult) -> None:
        """Add one *canonically ordered* shard result (see
        :func:`canonical_part`)."""
        rank = 0
        while rank < len(self._levels) and self._levels[rank] is not None:
            part = merge_pair(self._levels[rank], part)
            self._levels[rank] = None
            rank += 1
        if rank == len(self._levels):
            self._levels.append(part)
        else:
            self._levels[rank] = part

    def result(self) -> Optional[CorrelationResult]:
        """Fold the remaining partials (``None`` when nothing was pushed)."""
        merged: Optional[CorrelationResult] = None
        for partial in self._levels:
            if partial is None:
                continue
            merged = partial if merged is None else merge_pair(partial, merged)
        return merged


def merge_results(
    parts: Sequence[CorrelationResult],
    window: float,
    elapsed: float,
    total_activities: int,
    shard_sizes: Optional[Sequence[int]] = None,
) -> CorrelationResult:
    """Merge per-shard correlation results into one batch-shaped result.

    The gather is a pairwise merge tree over canonicalised parts, so the
    merged CAG lists -- and with them the ranked latency report computed
    from them -- are deterministic regardless of shard completion *or*
    argument order (``tests/test_sharded_scaling.py`` pins this down
    with shuffled part orders).  Peak memory numbers are summed across
    shards: with all shards resident at once (the parallel driver's
    situation) that is the honest working-set bound.
    """
    tree = MergeTree()
    for part in parts:
        tree.push(canonical_part(part))
    merged = tree.result()
    if merged is None:
        merged = CorrelationResult(
            cags=[],
            incomplete_cags=[],
            correlation_time=0.0,
            peak_buffered_activities=0,
            peak_state_entries=0,
            ranker_stats=RankerStats(),
            engine_stats=EngineStats(),
            window=window,
            total_activities=0,
        )
    return replace(
        merged,
        correlation_time=elapsed,
        window=window,
        total_activities=total_activities,
        shard_sizes=list(shard_sizes) if shard_sizes is not None else None,
    )


def _correlate_shard(
    window: float,
    sampling,
    decisions,
    shard: ActivityTable,
) -> CorrelationResult:
    """Correlate one shard with a batch :class:`Correlator`.

    ``sampling`` / ``decisions`` carry the request-sampling policy and
    its whole-trace frozen decision set, so every shard admits exactly
    the requests the batch run admits.
    """
    return Correlator(
        window=window, sampling=sampling, sampling_decisions=decisions
    ).correlate(shard)


def require_positive_or_none(name: str, value) -> None:
    """Refuse a shard knob that is neither ``None`` nor a positive int."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name} must be None or a positive int (got {value!r})")


class ShardedCorrelator:
    """Partition a trace into causally-closed shards and correlate them
    on a thread pool.

    Parameters
    ----------
    window:
        Sliding-time-window size in seconds (per shard, identical
        semantics to the batch correlator).
    max_workers:
        Thread-pool size for shard correlation (``None`` or a positive
        int).  The pool never exceeds the shard count; unset, it is
        further capped at ``os.cpu_count()``
        (``min(shards, max_workers or os.cpu_count())``).
    max_shards:
        Upper bound on shard count (``None`` or a positive int); above it
        components are packed LPT-greedily by activity count into that
        many buckets (see :func:`partition_activities`).  ``None`` keeps
        one shard per connected component.
    sampling:
        Optional :class:`repro.sampling.SamplingSpec`.  The hash and
        budget policies sample the identical request subset the batch
        and streaming drivers do (budget decisions are frozen over the
        whole trace *before* partitioning, then shared with every
        shard).  The adaptive policy is rejected: its feedback loop
        observes one sequential engine's state, which a shard-parallel
        run does not have.

    After a :meth:`correlate` call ``last_shard_sizes`` holds the
    activity count of each shard.
    """

    def __init__(
        self,
        window: float = 0.010,
        max_workers: Optional[int] = None,
        max_shards: Optional[int] = None,
        sampling=None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        require_positive_or_none("max_workers", max_workers)
        require_positive_or_none("max_shards", max_shards)
        if sampling is not None and sampling.kind == "adaptive":
            raise ValueError(
                "adaptive sampling feeds back from one sequential engine's "
                "state; use the batch or streaming driver (or a fixed-rate "
                "policy) with sharded correlation"
            )
        self.window = window
        self.max_workers = max_workers
        self.max_shards = max_shards
        self.sampling = sampling
        #: per-shard activity counts of the last ``correlate`` call
        self.last_shard_sizes: List[int] = []

    def correlate(self, activities: Trace) -> CorrelationResult:
        """Correlate a flat trace shard by shard: packed rows, or objects,
        which are packed once here."""
        table = as_table(activities)
        start = time.perf_counter()
        # Budget decisions depend on whole-trace root order, which no
        # single shard can see: freeze them before partitioning.
        decisions = self.sampling.freeze(table) if self.sampling is not None else None
        shards = partition_activities(table, max_shards=self.max_shards)
        self.last_shard_sizes = [len(shard) for shard in shards]
        if not shards:
            return Correlator(window=self.window).correlate(ActivityTable())
        tree = MergeTree()
        for part in self._parts(shards, decisions):
            tree.push(canonical_part(part))
        elapsed = time.perf_counter() - start
        return merge_results(
            [tree.result()], self.window, elapsed, len(table),
            shard_sizes=self.last_shard_sizes,
        )

    def _parts(self, shards: List[ActivityTable], decisions):
        """Yield each shard's correlation result, in shard order."""
        count = len(shards)
        if count == 1:
            # One shard: nothing to run concurrently, so no pool.
            yield _correlate_shard(self.window, self.sampling, decisions, shards[0])
            return
        # Imported where a pool is built: a tracer that never shards does
        # not load the executors (about 20 modules) at all.
        from concurrent.futures import ThreadPoolExecutor

        workers = min(count, self.max_workers or os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(
                _correlate_shard,
                [self.window] * count,
                [self.sampling] * count,
                [decisions] * count,
                shards,
            )
