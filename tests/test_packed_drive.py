"""Columns in, objects out late: the packed batch drive against the object-fed one.

``BackendSpec.batch().run(LogSource)`` packs each kept log line into
``ActivityTable`` columns (``LogSource.blocks()`` ->
``ActivityClassifier.pack_lines``) and the ranker builds an ``Activity``
only for a row it delivers; ``BackendSpec.batch().correlate(
LogSource.activities())`` builds every object up front and packs them
again at the entry.  Nothing downstream may be able to tell: these tests
hold the two to each other field for field, on every library scenario,
the RUBiS golden run and a noise-heavy trace, on both rank kernels and
across read block sizes -- and pin the identity contract (an object
handed in is never an object in a CAG, so one object list backs any
number of runs on any backend; a packed row's object is built once) and
the out-of-order path, where every column has to move together.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.correlator as correlator_module
from repro.core.activity import Activity
from repro.core.correlator import IncrementalEngine
from repro.core.interning import ActivityTable
from repro.core.ranker import ActivitySource, Ranker
from repro.pipeline import (
    BackendSpec,
    LogSource,
    MemorySource,
    SamplingSpec,
    canonical_cags,
    result_digest,
    verify_equivalence,
)
from repro.services.noise import NoiseConfig
from repro.topology.library import ScenarioConfig, run_scenario, scenario_names
from repro.topology.workload import WorkloadStages

from helpers import (
    assert_ranker_aligned,
    assert_ranker_drained,
    assert_results_equal,
    assert_source_aligned,
    use_kernel,
    write_node_logs,
)

STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)
READ_BLOCKS = [37, 1024, 64 * 1024]
#: The five library scenarios, the run behind ``tests/golden_store_run.json``
#: (``simulate --scenario rubis --clients 40 --runtime 4 --seed 17``) and
#: RUBiS under ten times the paper's noise.
TRACES = {name: ScenarioConfig(scenario=name, stages=STAGES, seed=11) for name in scenario_names()}
TRACES["rubis"] = ScenarioConfig(scenario="rubis", clients=150, stages=STAGES, seed=11)
TRACES["rubis-golden"] = ScenarioConfig(
    scenario="rubis",
    clients=40,
    stages=WorkloadStages(up_ramp=1.5, runtime=4.0, down_ramp=0.5),
    seed=17,
)
TRACES["rubis-noise-x10"] = ScenarioConfig(
    scenario="rubis",
    clients=30,
    stages=STAGES,
    seed=11,
    noise=NoiseConfig.paper_noise(10),
)


@pytest.fixture(scope="module")
def log_sets(tmp_path_factory):
    """trace name -> (run, per-node log paths), written once."""
    sets = {}
    for name, config in TRACES.items():
        run = run_scenario(config)
        sets[name] = (run, write_node_logs(run, tmp_path_factory.mktemp(name)))
    return sets


def log_source(run, paths, chunk_bytes=64 * 1024):
    return LogSource(
        paths,
        run.frontend_spec(),
        ignore_programs=run.topology.ignore_programs,
        chunk_bytes=chunk_bytes,
    )


def slots(activity):
    return {name: getattr(activity, name) for name in Activity.__slots__}


def held_vertices(result):
    """Every vertex object a result's CAGs hold: a finished CAG's root and
    END, an incomplete one's every vertex."""
    held = [vertex for cag in result.cags for vertex in (cag.root, cag.end_activity)]
    return held + [vertex for cag in result.incomplete_cags for vertex in cag.vertices]


# -- (a) packed == object-fed, on everything ---------------------------------------


class TestPackedRunEqualsObjectFedRun:
    @pytest.mark.parametrize("mode", ["python", "native"])
    @pytest.mark.parametrize("name", sorted(TRACES))
    @given(chunk_bytes=st.sampled_from(READ_BLOCKS))
    @settings(
        deadline=None,
        max_examples=3,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_field_for_field(self, log_sets, name, mode, chunk_bytes, monkeypatch):
        use_kernel(monkeypatch, mode)
        run, paths = log_sets[name]
        source = log_source(run, paths, chunk_bytes=chunk_bytes)
        fed = BackendSpec.batch().correlate(source.activities())
        lines_read = source.lines_read
        packed = BackendSpec.batch().run(source).correlation
        assert packed.ranker_stats == fed.ranker_stats
        assert packed.engine_stats == fed.engine_stats
        assert packed.peak_state_entries == fed.peak_state_entries
        assert packed.peak_buffered_activities == fed.peak_buffered_activities
        assert canonical_cags(packed.cags) == canonical_cags(fed.cags)  # in order
        assert result_digest(packed) == result_digest(fed)
        assert_results_equal(packed, fed)
        # an object exists for exactly the rows that were delivered
        assert packed.materialised_activities == packed.ranker_stats.delivered
        assert (
            packed.total_activities - packed.materialised_activities
            == packed.ranker_stats.noise_discarded
        )
        assert source.lines_read == lines_read

    def test_the_noise_trace_really_discards(self, log_sets):
        run, paths = log_sets["rubis-noise-x10"]
        packed = BackendSpec.batch().run(log_source(run, paths)).correlation
        assert packed.ranker_stats.noise_discarded > packed.total_activities / 10
        assert len(packed.cags) == run.completed_requests

    def test_blocks_are_the_activities_row_for_row(self, log_sets):
        run, paths = log_sets["fanout_aggregator"]
        source = log_source(run, paths, chunk_bytes=1024)
        objects = source.activities()
        blocks = list(source.blocks())
        rows = [activity for block in blocks for activity in block]
        assert len(rows) == len(objects) > 0
        # one read of the source, one key space
        keys = blocks[0].keys
        assert all(block.keys is keys for block in blocks)
        first = objects[0].seq, rows[0].seq
        for built, original in zip(rows, objects):
            ours, theirs = slots(built), slots(original)
            # one global counter: compare the order
            assert ours.pop("seq") - first[1] == theirs.pop("seq") - first[0]
            assert ours == theirs
            assert built.context == original.context
            assert built.context is keys.contexts[built.context_key]  # the key space's own
        # a second run over the same source reads the same rows again
        assert sum(len(block) for block in source.blocks()) == len(objects)

    def test_a_table_backs_any_number_of_runs(self, log_sets):
        run, paths = log_sets["cache_aside"]
        table = ActivityTable.from_activities(log_source(run, paths).activities())
        views = list(table)  # objects built from the rows: no run may see them
        first = BackendSpec.batch().correlate(table)
        second = BackendSpec.batch().correlate(table)
        assert first.total_activities == second.total_activities == len(table)
        assert result_digest(first) == result_digest(second) == result_digest(
            BackendSpec.batch().correlate(log_source(run, paths).activities())
        )
        assert first.cags and any(
            size != logged
            for cag in first.cags
            for size, logged in zip(cag.column("size"), cag.column("message_size"))
        )  # the engine did consume byte counts -- of its own objects
        mine = {id(view) for view in views}
        assert not any(id(vertex) in mine for vertex in held_vertices(first))
        assert [view.size for view in views] == [view.message.size for view in views]
        assert list(table) == views and table.activity(0) is not views[0]


# -- (c) an out-of-order node log: every column moves together ---------------------


class TestOutOfOrderPackedRows:
    def _packed_rows(self, log_sets, name="five_tier_chain"):
        run, paths = log_sets[name]
        source = log_source(run, paths)
        tables = list(source.blocks())
        return run, source, tables

    def test_a_shuffled_node_log_takes_the_sort_and_equals_the_ordered_run(
        self, log_sets, tmp_path
    ):
        run, paths = log_sets["five_tier_chain"]
        rng = random.Random(5)

        def shuffle_in_windows(_node, lines):
            # local disorder everywhere: every window of 9 lines reshuffled
            out = []
            for start in range(0, len(lines), 9):
                window = lines[start : start + 9]
                rng.shuffle(window)
                out += window
            return out

        shuffled = write_node_logs(run, tmp_path, mutate=shuffle_in_windows)
        source = log_source(run, shuffled, chunk_bytes=2048)
        fed = BackendSpec.batch().correlate(source.activities())
        packed = BackendSpec.batch().run(source).correlation
        assert_results_equal(packed, fed)

    def test_late_packed_rows_are_inserted_with_all_their_columns(self, log_sets):
        run, source, tables = self._packed_rows(log_sets)
        node_rows = max(
            (table for block in tables for table in block.by_node().values()), key=len
        )
        assert len(node_rows) > 40
        early = node_rows.take(range(0, len(node_rows), 2))
        late = node_rows.take(range(1, len(node_rows), 2))
        ordered = ActivitySource("n", node_rows)
        interleaved = ActivitySource("n", early)
        interleaved._positions()
        interleaved.extend(late)  # every row sorts in front of something held
        assert_source_aligned(interleaved)
        assert_source_aligned(ordered)
        for ours, theirs in zip(interleaved._table._columns(), ordered._table._columns()):
            assert list(ours) == list(theirs)
        # a fetch, then a late row older than everything fetched: it lands
        # at the fence, columns and all
        fetched = ordered.fetch_until(ordered._ts[len(node_rows) // 2])
        stale = node_rows.take([0])
        ordered.extend(stale)
        assert ordered.fence == fetched and ordered.next_timestamp == node_rows.timestamp(0)
        assert_source_aligned(ordered)
        assert slots(ordered.activity(ordered.fence)) == slots(node_rows.activity(0))

    def test_a_rotation_moves_every_column_and_builds_nothing(self, log_sets):
        run, source, tables = self._packed_rows(log_sets)
        ranker = Ranker(None, {}, window=1e9)
        for table in tables:
            ranker.ingest(table)
        ranker.seal()
        ranker._refill()
        slot, source = max(enumerate(ranker._slot_sources), key=lambda item: len(item[1]._ts))
        sends = [i for i in range(source.head + 1, source.fence) if source.send_key(i) is not None]
        before = [slots(source.activity(i)) for i in range(source.fence)]
        source._positions()
        ranker._promote_send(slot, sends[3])
        assert_ranker_aligned(ranker)
        after = [slots(source.activity(i)) for i in range(source.fence)]
        assert after == [before[sends[3]]] + before[: sends[3]] + before[sends[3] + 1 :]
        assert ranker.stats.delivered == 0
        delivered = ranker.rank()
        assert delivered is not None and ranker.stats.delivered == 1


# -- (d) the budget pre-pass reads packed input as it reads objects ----------------


class TestBudgetPrepassOverPackedInput:
    def test_frozen_decisions_and_result_are_the_same(self, log_sets):
        run, paths = log_sets["rubis"]
        sampling = SamplingSpec.budget(per_second=5)
        source = log_source(run, paths, chunk_bytes=4096)
        from_objects = sampling.freeze(source.activities())
        from_rows = sampling.freeze(activity for block in source.blocks() for activity in block)
        assert from_rows == from_objects and from_objects
        fed = BackendSpec.batch(sampling=sampling).correlate(source.activities())
        packed = BackendSpec.batch(sampling=sampling).run(source).correlation
        full = BackendSpec.batch().run(source).correlation
        assert 0 < len(packed.cags) < len(full.cags)
        assert_results_equal(packed, fed)


# -- (e) the identity contract ------------------------------------------------------


class TestIdentity:
    def test_an_object_handed_in_is_never_a_vertex(self, log_sets):
        run, paths = log_sets["replicated_lb"]
        activities = log_source(run, paths).activities()
        mine = {id(activity) for activity in activities}
        result = BackendSpec.batch().correlate(activities)
        vertices = held_vertices(result)
        assert vertices and not any(id(vertex) in mine for vertex in vertices)
        assert result.materialised_activities == result.ranker_stats.delivered

    def test_one_object_list_backs_every_backend_twice(self, log_sets):
        """What ``Activity.clone()`` used to be for: each entry packs the
        caller's objects and every run builds objects of its own, so one
        list goes through every backend twice with nothing copied."""
        run, paths = log_sets["replicated_lb"]
        objects = log_source(run, paths).activities()
        mine = {id(activity) for activity in objects}
        backends = [
            BackendSpec.batch(),
            BackendSpec.streaming(),
            BackendSpec.sharded(),
        ]
        digests = set()
        for backend in backends:
            for _pass in range(2):
                result = backend.correlate(objects)
                digests.add(result_digest(result))
                assert result.cags and not any(
                    id(vertex) in mine for vertex in held_vertices(result)
                )
        assert len(digests) == 1
        assert all(activity.size == activity.message.size for activity in objects)
        assert verify_equivalence(MemorySource(objects)).equivalent

    def test_a_packed_rows_object_is_built_exactly_once(self, log_sets, monkeypatch):
        run, paths = log_sets["replicated_lb"]
        source = log_source(run, paths)
        engine = IncrementalEngine()
        for block in source.blocks():
            engine.buffer(block)
        engine.ranker.seal()
        delivered = []
        while (candidate := engine.ranker.rank()) is not None:
            delivered.append(candidate)
        assert_ranker_drained(engine.ranker)
        # one object per delivered row, none for a discarded one, no two alike
        assert len({id(activity) for activity in delivered}) == len(delivered)
        assert len(delivered) == engine.ranker.stats.delivered
        seqs = [activity.seq for activity in delivered]
        assert len(set(seqs)) == len(seqs)
        assert engine.total_ingested - len(delivered) == engine.ranker.stats.noise_discarded

    def test_a_row_looked_at_early_is_built_again_at_delivery(self, log_sets):
        run, paths = log_sets["cache_aside"]
        ranker = Ranker(None, {}, window=0.01)
        for block in log_source(run, paths).blocks():
            ranker.ingest(block)
        ranker.seal()
        ranker._refill()
        peeked = list(ranker.buffered_activities())  # a debugging view builds ...
        assert peeked and all(isinstance(activity, Activity) for activity in peeked)
        delivered = []
        while len(delivered) < len(peeked) and (candidate := ranker.rank()) is not None:
            delivered.append(candidate)
        # ... objects of its own: the delivered ones are new, and equal
        assert not {id(a) for a in delivered} & {id(a) for a in peeked}
        by_seq = {activity.seq: activity for activity in peeked}
        shared = [a for a in delivered if a.seq in by_seq]
        assert shared
        for activity in shared:
            assert slots(activity) == slots(by_seq[activity.seq])


# -- the ranker lets go of what it delivered ----------------------------------------


class TestDeliveredRowsAreReleased:
    def test_delivered_rows_are_released_between_slices(self, log_sets, monkeypatch):
        monkeypatch.setattr(correlator_module, "FLUSH_SLICE_SAMPLES", 1)
        run, paths = log_sets["rubis"]
        # The batch drive by hand: buffer every block, then drain in slices.
        engine = IncrementalEngine()
        for block in log_source(run, paths).blocks():
            engine.buffer(block)
        ranker = engine.ranker
        held = []
        for finished in engine.flush_slices():
            for _cag in finished:
                held.append(sum(len(source._ts) for source in ranker._slot_sources))
                for source in ranker._slot_sources:
                    # never more than twice what is still to come
                    assert source.head * 2 <= len(source._ts) or not len(source._ts)
        total = engine.total_ingested
        assert held[0] <= total and held[-1] < total / 4
        assert held == sorted(held, reverse=True)
        assert_ranker_drained(ranker)
