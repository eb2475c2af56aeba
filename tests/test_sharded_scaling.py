"""Tests for the sharded backend: LPT packing, merge tree, one driver.

Three invariants keep the scheduler/merge layer honest:

* **Assignment is policy, output is not** -- whatever ``max_shards``
  packs the components into, the output is digest-identical to the
  batch correlator: components are causally closed, so *where* one runs
  can never change *what* it produces.
* **Merge order independence** -- the gather is an associative pairwise
  merge over canonicalised parts, so ``merge_results`` (and the ranked
  latency report computed from its output) gives byte-identical results
  for any permutation of shard results.
* **The packing packs** -- LPT spreads the heavy components and stays
  within Graham's 4/3 bound.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import random

import pytest

from helpers import SyntheticTrace
from repro.core.activity import sort_key
from repro.core.correlator import Correlator
from repro.core.interning import ActivityTable
from repro.pipeline import BackendSpec, ranked_latency_report, result_digest
from repro.stream import (
    MergeTree,
    ShardedCorrelator,
    canonical_part,
    merge_pair,
    merge_results,
    partition_activities,
    partition_components,
)
from repro.stream.scheduler import pack_lpt
from repro.topology.library import run_scenario


# ---------------------------------------------------------------------------
# Packing unit tests (pure planning, no correlation)
# ---------------------------------------------------------------------------

def _makespan(weights, assignments):
    return max(sum(weights[index] for index in slot) for slot in assignments)


class TestPlans:
    WEIGHTS = [100, 700, 120, 130, 50, 650]

    def test_balanced_plan_is_lpt(self):
        assignments = pack_lpt(self.WEIGHTS, 4)
        # Heaviest first onto the lightest slot: 700 and 650 land on
        # different slots, and no slot exceeds the heaviest component.
        slot_of = {
            index: slot
            for slot, members in enumerate(assignments)
            for index in members
        }
        assert slot_of[1] != slot_of[5]
        assert _makespan(self.WEIGHTS, assignments) == 700
        with pytest.raises(ValueError):
            pack_lpt([1], 0)

    def test_lpt_stays_within_its_approximation_bound(self):
        # Graham's guarantee: LPT makespan <= (4/3 - 1/(3m)) * OPT, with
        # OPT brute-forced over every assignment of a small instance.
        rng = random.Random(20260807)
        for _ in range(50):
            weights = [rng.randint(1, 1000) for _ in range(rng.randint(1, 7))]
            for slots in (1, 2, 3):
                assignments = pack_lpt(weights, slots)
                # Every component is assigned exactly once.
                flat = sorted(i for slot in assignments for i in slot)
                assert flat == list(range(len(weights)))
                placements = itertools.product(range(slots), repeat=len(weights))
                optimum = min(
                    max(
                        sum(w for w, s in zip(weights, placement) if s == slot)
                        for slot in range(slots)
                    )
                    for placement in placements
                )
                bound = (4 / 3 - 1 / (3 * slots)) * optimum
                assert _makespan(weights, assignments) <= bound + 1e-9


# ---------------------------------------------------------------------------
# Merge-order independence
# ---------------------------------------------------------------------------

def _component_parts(window=0.010):
    """Per-component correlation results of one multi-component trace."""
    activities = run_scenario("replicated_lb", seed=7).activities()
    components = partition_components(activities)
    assert len(components) >= 3, "scenario must shard for the test to bite"
    parts = [
        Correlator(window=window).correlate(component) for component in components
    ]
    return activities, parts


class TestMergeOrderIndependence:
    def test_merge_results_is_independent_of_part_order(self):
        activities, parts = _component_parts()
        total = len(activities)
        reference = merge_results(parts, 0.010, 1.0, total)
        reference_report = ranked_latency_report(reference.cags)
        rng = random.Random(99)
        orders = [list(reversed(parts))] + [
            rng.sample(parts, len(parts)) for _ in range(5)
        ]
        for permuted in orders:
            merged = merge_results(permuted, 0.010, 1.0, total)
            assert result_digest(merged) == result_digest(reference)
            # The ranked latency report -- the paper's end product -- is
            # computed from the merged CAG list, so permutation
            # invariance of the merge makes the *report* completion-
            # order independent too.
            assert ranked_latency_report(merged.cags) == reference_report
            assert [c.begin_timestamp for c in merged.cags] == [
                c.begin_timestamp for c in reference.cags
            ]

    def test_merge_pair_is_associative_over_canonical_parts(self):
        _activities, parts = _component_parts()
        a, b, c = (canonical_part(part) for part in parts[:3])
        left = merge_pair(merge_pair(a, b), c)
        right = merge_pair(a, merge_pair(b, c))
        assert result_digest(left) == result_digest(right)
        assert left.total_activities == right.total_activities
        assert left.correlation_time == pytest.approx(right.correlation_time)

    def test_merge_tree_equals_flat_fold(self):
        _activities, parts = _component_parts()
        tree = MergeTree()
        for part in parts:
            tree.push(canonical_part(part))
        flat = canonical_part(parts[0])
        for part in parts[1:]:
            flat = merge_pair(flat, canonical_part(part))
        assert result_digest(tree.result()) == result_digest(flat)

    def test_empty_merge_produces_an_empty_result(self):
        merged = merge_results([], 0.010, 0.5, 0)
        assert merged.cags == [] and merged.incomplete_cags == []
        assert merged.correlation_time == 0.5
        assert merged.window == 0.010


# ---------------------------------------------------------------------------
# Sharded vs batch: identical output
# ---------------------------------------------------------------------------

def _replicated_lb_table(seed=7):
    return ActivityTable.from_activities(
        run_scenario("replicated_lb", seed=seed).activities()
    )


def _skewed_composite_table() -> ActivityTable:
    """Four library scenarios at distinct seeds, concatenated.

    Their node names never overlap, so each contributes its own
    causally-closed component(s), and the mix is heavy-tailed: the
    fan-out aggregator and the five-tier chain each collapse into one
    giant component next to small ones.  Scenario defaults are used on
    purpose -- other runtimes or client counts merge or splinter
    components and lose the skew.
    """
    parts = [
        run_scenario("fanout_aggregator", seed=11, clients=60),
        run_scenario("replicated_lb", seed=7, clients=40),
        run_scenario("five_tier_chain", seed=3, clients=50),
        run_scenario("rubis", seed=6, clients=30),
    ]
    activities = [activity for part in parts for activity in part.activities()]
    activities.sort(key=sort_key)
    return ActivityTable.from_activities(activities)


class TestSchedulesMatchBatch:
    def test_sharded_matches_batch_digest(self):
        table = _replicated_lb_table()
        batch = result_digest(Correlator(window=0.010).correlate(table))
        for max_shards in (None, 1, 2, 4):
            correlator = ShardedCorrelator(window=0.010, max_shards=max_shards)
            digest = result_digest(correlator.correlate(table))
            assert digest == batch, max_shards
            assert sum(correlator.last_shard_sizes) == len(table)
            if max_shards is not None:
                assert len(correlator.last_shard_sizes) <= max_shards

    def test_thread_pool_seed_sweep_matches_batch(self):
        # Sweeping seeds exercises different component shapes (and with
        # them different bucket contents) against the same merge path.
        for seed in (3, 7, 11):
            table = _replicated_lb_table(seed)
            batch = result_digest(Correlator(window=0.010).correlate(table))
            pooled = result_digest(ShardedCorrelator(window=0.010, max_shards=4).correlate(table))
            assert pooled == batch, seed

    def test_benchmark_harness_spelling_matches_batch(self):
        # benchmarks/e2e/worker.py builds its sharded leg exactly so; the
        # executor keyword is accepted for that call and means threads.
        table = _replicated_lb_table()
        batch = result_digest(BackendSpec.batch().correlate(table))
        harness = BackendSpec.sharded(max_workers=2, executor="thread")
        assert result_digest(harness.correlate(table)) == batch
        with pytest.raises(ValueError, match="executor"):
            BackendSpec.sharded(max_workers=2, executor="process")

    @pytest.mark.parametrize("knob", ["max_shards", "max_workers"])
    @pytest.mark.parametrize("value", [0, -1, -3, 2.0, True])
    def test_bad_shard_knobs_are_refused_at_construction(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            ShardedCorrelator(window=0.010, **{knob: value})

    def test_packing_separates_the_dominant_components(self):
        # The skewed composite has two dominant components; a cost-blind
        # fold can stack them on one bucket, LPT by construction cannot.
        table = _skewed_composite_table()
        heavies = sorted(partition_components(table), key=len, reverse=True)[:2]
        buckets = partition_activities(table, max_shards=2)
        assert len(buckets) == 2
        bucket_of = {
            activity.seq: index
            for index, bucket in enumerate(buckets)
            for activity in bucket
        }
        first, second = (bucket_of[heavy.activity(0).seq] for heavy in heavies)
        assert first != second

    def test_unset_max_workers_caps_pool_at_cpu_count(self, monkeypatch):
        # 12 components, no max_shards, no max_workers: the pool is sized
        # min(shards, os.cpu_count()), never one worker per component and
        # never the executor's own default.
        pool_sizes = []

        # the driver imports the executors where it builds a pool
        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                pool_sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        # Twelve requests on twelve disjoint worker sets: 12 components.
        trace = SyntheticTrace()
        for index in range(12):
            trace.three_tier_request(
                request_id=index + 1,
                start=0.5 + index * 0.004,
                web_pid=100 + index,
                app_tid=200 + index,
                db_tid=300 + index,
            )
        for max_workers, expected in ((None, min(12, os.cpu_count())), (3, 3)):
            correlator = ShardedCorrelator(window=0.010, max_workers=max_workers)
            correlator.correlate(trace.activities)
            assert len(correlator.last_shard_sizes) == 12
            assert pool_sizes.pop() == expected
        assert not pool_sizes
