"""Sharded correlation: the batch result restated one component at a time.

Correlation decisions only ever relate activities through two keys: the
*context identifier* (adjacent-context edges, ``cmap``) and the
*connection 4-tuple* (message edges, ``mmap``).  Treating both key kinds
as nodes of one graph -- with an edge between an activity's context key
and its connection key -- the connected components of that graph are
exactly the finest partition of the trace that is **causally closed**: no
context or message relation can cross a component boundary.  Each
component can therefore be correlated completely independently, and the
union of the per-component results is *identical* to the batch result.

:func:`partition_components` computes those components with a
union-find pass; :func:`correlate_components` correlates each one
serially on an :class:`~repro.core.correlator.IncrementalEngine` of its
own and merges once: the CAG lists sorted into canonical order (BEGIN
timestamp, then creation sequence), every counter and peak summed.

This is an equivalence oracle, not a scale-out engine.  It is the
``sharded`` kind of :class:`repro.pipeline.BackendSpec`, and what it buys
is a second, independently structured route to the batch result: the
batch == sharded digests found the order-sensitive bug (fuzz seeds
90/119).  No trace the repository produces ran faster sharded than
batch, on a thread pool or otherwise (``replicated_lb`` at 150 req/s
open-loop, 112 k activities in 3 components: 1.08 s batch, 1.18-1.39 s on
threads), so components run one after another.  A component is a table
of rows, and each run builds the objects it delivers, so a caller's
activity objects are never touched.
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import Dict, Hashable, Iterable, List, Tuple, Union

from ..core.activity import Activity
from ..core.correlator import CorrelationResult, IncrementalEngine
from ..core.engine import EngineStats
from ..core.interning import ActivityTable, as_table
from ..core.ranker import RankerStats


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
    objects packed here), in first-seen order, one table each."""
    table = as_table(activities)
    return [table.take(rows) for rows in _component_rows(table)]


def _sum_stats(cls, parts):
    """Field-wise sum of same-typed stats dataclasses."""
    merged = cls()
    for part in parts:
        for f in fields(cls):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(part, f.name))
    return merged


def _cag_order(cag) -> Tuple[float, int]:
    """Canonical CAG order: BEGIN timestamp, then creation sequence."""
    return (cag.begin_timestamp, cag.root.seq)


def correlate_components(table: ActivityTable, window: float, sampling=None) -> CorrelationResult:
    """Correlate a trace one causally-closed component at a time, and
    merge the results into one batch-shaped result.

    Each component runs as the batch backend runs a whole trace: buffer
    it all, seal and drain.  ``sampling`` is the request-sampling policy;
    its decisions are frozen over the whole trace before partitioning
    (budget decisions depend on whole-trace root order, which no single
    component can see), so every component admits exactly the requests a
    batch run admits.  Peaks are summed across components, as if every
    component were resident at once; ``correlation_time`` is the wall
    clock of the whole call.
    """
    start = time.perf_counter()
    decisions = sampling.freeze(table) if sampling is not None else None
    parts = []
    for component in partition_components(table) or [table]:
        engine = IncrementalEngine(window=window, sampling=sampling, sampling_decisions=decisions)
        engine.buffer(component)
        engine.flush()
        parts.append(engine.result())
    return CorrelationResult(
        cags=sorted((cag for part in parts for cag in part.cags), key=_cag_order),
        incomplete_cags=sorted(
            (cag for part in parts for cag in part.incomplete_cags), key=_cag_order
        ),
        correlation_time=time.perf_counter() - start,
        peak_buffered_activities=sum(part.peak_buffered_activities for part in parts),
        peak_state_entries=sum(part.peak_state_entries for part in parts),
        ranker_stats=_sum_stats(RankerStats, [part.ranker_stats for part in parts]),
        engine_stats=_sum_stats(EngineStats, [part.engine_stats for part in parts]),
        window=window,
        total_activities=len(table),
        final_state_entries=sum(part.final_state_entries for part in parts),
        final_open_tombstones=sum(part.final_open_tombstones for part in parts),
        materialised_activities=sum(part.materialised_activities for part in parts),
    )
