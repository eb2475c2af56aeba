"""Tests for the sharded backend: the equivalence oracle.

Two invariants keep the oracle honest:

* **Components are causally closed** -- correlating each one alone and
  merging gives output digest-identical to the batch correlator, so
  *where* a component runs can never change *what* it produces.
* **The merge is one sort and one sum** -- the merged CAG lists are in
  canonical order (BEGIN timestamp, then creation sequence), and every
  counter and peak is the field-wise sum of the per-component results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import pytest

from repro.core.interning import ActivityTable
from repro.pipeline import BackendSpec, result_digest
from repro.stream import partition_components
from repro.stream import sharded as sharded_module
from repro.topology.library import run_scenario


def _replicated_lb_table(seed=7):
    return ActivityTable.from_activities(run_scenario("replicated_lb", seed=seed).activities())


class TestSchedulesMatchBatch:
    def test_sharded_matches_batch_digest(self):
        table = _replicated_lb_table()
        components = partition_components(table)
        assert len(components) >= 3, "scenario must shard for the test to bite"
        assert sum(len(component) for component in components) == len(table)
        batch = result_digest(BackendSpec.batch(window=0.010).correlate(table))
        assert result_digest(BackendSpec.sharded(window=0.010).correlate(table)) == batch

    def test_seed_sweep_matches_batch(self):
        # Sweeping seeds exercises different component shapes against
        # the same merge.
        for seed in (3, 7, 11):
            table = _replicated_lb_table(seed)
            batch = result_digest(BackendSpec.batch(window=0.010).correlate(table))
            sharded = result_digest(BackendSpec.sharded(window=0.010).correlate(table))
            assert sharded == batch, seed

    def test_benchmark_harness_spelling_matches_batch(self):
        # benchmarks/e2e/worker.py builds its sharded leg exactly so; both
        # keywords are accepted for that call and change nothing.
        table = _replicated_lb_table()
        batch = result_digest(BackendSpec.batch().correlate(table))
        harness = BackendSpec.sharded(max_workers=2, executor="thread")
        assert result_digest(harness.correlate(table)) == batch
        with pytest.raises(ValueError, match="executor"):
            BackendSpec.sharded(max_workers=2, executor="process")


class TestMerge:
    def test_cags_are_in_canonical_order(self):
        result = BackendSpec.sharded(window=0.010).correlate(_replicated_lb_table())
        for cags in (result.cags, result.incomplete_cags):
            order = [(cag.begin_timestamp, cag.root.seq) for cag in cags]
            assert order == sorted(order)

    def test_counters_and_peaks_are_summed_over_components(self):
        table = _replicated_lb_table()
        parts = [
            BackendSpec.batch(window=0.010).correlate(component)
            for component in partition_components(table)
        ]
        merged = BackendSpec.sharded(window=0.010).correlate(table)
        for stats in ("engine_stats", "ranker_stats"):
            for f in fields(getattr(merged, stats)):
                total = sum(getattr(getattr(part, stats), f.name) for part in parts)
                assert getattr(getattr(merged, stats), f.name) == total, (stats, f.name)
        for name in (
            "peak_buffered_activities",
            "peak_state_entries",
            "final_state_entries",
            "final_open_tombstones",
            "materialised_activities",
        ):
            assert getattr(merged, name) == sum(getattr(part, name) for part in parts), name
        assert merged.total_activities == len(table)
        assert len(merged.cags) == sum(len(part.cags) for part in parts)

    def test_merge_is_independent_of_component_order(self, monkeypatch):
        # The one sort puts the CAGs in canonical order whatever order the
        # components ran in.
        table = _replicated_lb_table()
        in_order = BackendSpec.sharded(window=0.010).correlate(table)
        monkeypatch.setattr(
            sharded_module,
            "partition_components",
            lambda trace: partition_components(trace)[::-1],
        )
        reversed_order = BackendSpec.sharded(window=0.010).correlate(table)
        assert result_digest(reversed_order) == result_digest(in_order)
        for attr in ("cags", "incomplete_cags"):
            assert [(c.begin_timestamp, c.root.seq) for c in getattr(reversed_order, attr)] == [
                (c.begin_timestamp, c.root.seq) for c in getattr(in_order, attr)
            ]

    def test_components_are_disjoint_and_cover_the_trace(self):
        # Every row lands in exactly one component: the rows of all
        # components, as a multiset, are the rows of the trace.
        def rows(table):
            return Counter(
                (table.timestamp(row), table.context_key(row), table.message_key(row))
                for row in range(len(table))
            )

        table = _replicated_lb_table()
        merged = Counter()
        for component in partition_components(table):
            merged += rows(component)
        assert merged == rows(table)

    def test_an_empty_trace_gives_an_empty_result(self):
        result = BackendSpec.sharded(window=0.010).correlate(ActivityTable())
        assert result.cags == [] and result.incomplete_cags == []
        assert result.total_activities == 0
        assert result.window == 0.010
