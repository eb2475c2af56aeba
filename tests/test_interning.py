"""Tests for the columnar core (repro.core.interning).

Three invariants keep the interning refactor honest:

* **Round trip** -- a key space is injective and first-seen ordered, so
  an identity's id must index back to that identity, and asking again
  must return the same dense int (property-tested over generated
  ``ContextId``/``MessageId`` values).
* **One run, one key space** -- every table a run derives shares its
  space, rows of another are refused or re-keyed by identity, two runs
  share no plan or signature, and a finished run's key space is freed
  with its result (end to end across a process boundary: the
  SIGKILL/resume subprocess test in ``tests/test_checkpoint.py``).
* **Sampler invariance** -- sampling decisions hash the original string
  identity, never the interned ints, so the sampled request subset is
  byte-identical to the pre-refactor pins captured at commit 15b54ad.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.correlator import IncrementalEngine
from repro.core.interning import ActivityTable, KeySpace
from repro.core.patterns import cag_signature, classify
from repro.pipeline import BackendSpec, result_digest
from repro.sampling import SamplingSpec
from repro.sampling.sampler import precompute_decisions
from repro.topology import ScenarioConfig, run_scenario

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=16,
)
contexts = st.builds(
    ContextId,
    hostname=names,
    program=names,
    pid=st.integers(min_value=0, max_value=2**31),
    tid=st.integers(min_value=0, max_value=2**31),
)
messages = st.builds(
    MessageId,
    src_ip=names,
    src_port=st.integers(min_value=0, max_value=65535),
    dst_ip=names,
    dst_port=st.integers(min_value=0, max_value=65535),
    size=st.integers(min_value=0, max_value=10**6),
)


def make_activity(
    type=ActivityType.SEND,
    timestamp=1.0,
    hostname="node1",
    program="httpd",
    pid=10,
    tid=11,
    connection=("10.0.0.1", 5000, "10.0.0.2", 80),
    size=128,
    request_id=None,
):
    return Activity(
        type=type,
        timestamp=timestamp,
        context=ContextId(hostname, program, pid, tid),
        message=MessageId(*connection, size),
        request_id=request_id,
    )


class TestRoundTrip:
    @given(st.lists(contexts, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_context_intern_resolve_round_trip(self, items):
        keys = KeySpace()
        ids = [keys.context_key(c) for c in items]
        for context, cid in zip(items, ids):
            assert keys.contexts[cid].as_tuple() == context.as_tuple()
        # Re-interning the same identities is stable (first-seen wins).
        assert [keys.context_key(c) for c in items] == ids
        # Ids are dense: one per distinct identity, counted from zero.
        distinct = {c.as_tuple() for c in items}
        assert sorted(set(ids)) == list(range(len(distinct)))

    @given(st.lists(messages, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_message_intern_resolve_round_trip(self, items):
        keys = KeySpace()
        ids = [keys.message_key(m.connection_key()) for m in items]
        for message, mid in zip(items, ids):
            assert keys.connections[mid] == message.connection_key()
        assert [keys.message_key(m.connection_key()) for m in items] == ids
        distinct = {m.connection_key() for m in items}
        assert sorted(set(ids)) == list(range(len(distinct)))

    @given(st.lists(names, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_node_intern_resolve_round_trip(self, hostnames):
        keys = KeySpace()
        ids = [keys.context_key(ContextId(h, "prog", 1, 1)) for h in hostnames]
        for hostname, cid in zip(hostnames, ids):
            assert keys.node_ids[hostname] == keys.node_of[cid]
        nodes = [keys.node_of[cid] for cid in ids]
        assert [keys.node_ids[h] for h in hostnames] == nodes
        assert sorted(set(nodes)) == list(range(len(set(hostnames))))

    def test_the_first_object_of_an_identity_is_its_canonical_one(self):
        keys = KeySpace()
        context = ContextId("host", "prog", 1, 2)
        cid = keys.context_key(context)
        assert keys.context_key(ContextId("host", "prog", 1, 2)) == cid
        assert keys.contexts[cid] is context

    def test_component_ids_ignore_pid_and_tid(self):
        keys = KeySpace()
        worker_a = keys.context_key(ContextId("app", "java", 1, 1))
        database = keys.context_key(ContextId("db", "mysqld", 2, 2))
        worker_b = keys.context_key(ContextId("app", "java", 1, 7))
        # First seen, per component -- and every id is the context's own.
        assert keys.component_of[worker_a] == keys.component_of[worker_b] == 0
        assert keys.component_of[database] == 1
        assert keys.node_of[worker_a] == keys.node_of[worker_b] != keys.node_of[database]


def _two_component_trace():
    """Two causally-closed request chains (so the sharded driver really
    partitions), web -> app on distinct connections per request."""
    activities = []
    for req in range(8):
        base = req * 0.050
        conn = ("10.0.0.1", 40000 + req, "10.0.0.2", 8080)
        back = ("10.0.0.2", 8080, "10.0.0.1", 40000 + req)
        web = dict(hostname="web", program="httpd", pid=req, tid=0)
        app = dict(hostname="app", program="java", pid=req, tid=0)
        activities += [
            make_activity(ActivityType.BEGIN, base, connection=conn, request_id=req, **web),
            make_activity(ActivityType.SEND, base + 0.001, connection=conn, request_id=req, **web),
            make_activity(
                ActivityType.RECEIVE, base + 0.002, connection=conn, request_id=req, **app
            ),
            make_activity(
                ActivityType.SEND, base + 0.003, connection=back, request_id=req, **app
            ),
            make_activity(
                ActivityType.RECEIVE, base + 0.004, connection=back, request_id=req, **web
            ),
            make_activity(ActivityType.END, base + 0.005, connection=back, request_id=req, **web),
        ]
    return activities


class TestActivityTable:
    def test_round_trip_and_lazy_views(self):
        activities = _two_component_trace()
        table = ActivityTable.from_activities(activities)
        assert len(table) == len(activities)
        keys = table.keys
        for row, original in enumerate(activities):
            assert table.timestamp(row) == original.timestamp
            # the object's keys are its identity; the row's, ids of it
            assert keys.contexts[table.context_key(row)].as_tuple() == original.context_key
            assert keys.connections[table.message_key(row)] == original.message_key
            assert keys.node_ids[original.node_key] == table.node_key(row)
        materialised = list(table)
        assert materialised == activities
        # Every build is a new object the table does not remember.
        assert table.activity(0) is not materialised[0]
        assert not any(built is original for built, original in zip(materialised, activities))
        assert table.nbytes() > 0

    def test_rows_of_one_connection_and_size_share_one_message(self):
        # Each object carries its own MessageId; the table keeps one per
        # connection and size, so packing does not hold every copy alive.
        conn = ("10.0.0.1", 40000, "10.0.0.2", 8080)
        activities = [
            make_activity(ActivityType.SEND, 1.0, connection=conn, size=100),
            make_activity(ActivityType.RECEIVE, 1.1, connection=conn, size=100),
            make_activity(ActivityType.SEND, 1.2, connection=conn, size=60),
        ]
        assert activities[0].message is not activities[1].message
        table = ActivityTable.from_activities(activities)
        first, second, third = (table.activity(row).message for row in range(3))
        assert first is second
        assert third is not first and third.size == 60
        assert list(table) == activities

    def test_backend_correlates_a_table_repeatably(self):
        activities = _two_component_trace()
        table = ActivityTable.from_activities(activities)
        spec = BackendSpec.batch()
        first = result_digest(spec.correlate(table))
        # The engine consumes Activity.size in place, on the objects each
        # run builds from the rows: a second pass is identical.
        second = result_digest(spec.correlate(table))
        assert first == second == result_digest(spec.correlate(list(activities)))


class TestOneKeySpacePerRun:
    def test_derived_tables_share_the_key_space(self):
        table = ActivityTable.from_activities(_two_component_trace())
        keys = table.keys
        derived = [table.take([3, 1]), table[2:5], table.ordered(), table.take([])]
        derived += table.by_node().values()
        assert all(part.keys is keys for part in derived)
        assert ActivityTable.from_activities(_two_component_trace()).keys is not keys

    def test_rows_of_another_key_space_are_refused(self):
        table = ActivityTable.from_activities(_two_component_trace())
        other = ActivityTable.from_activities(_two_component_trace())
        with pytest.raises(ValueError, match="another key space"):
            table.concat(other)
        with pytest.raises(ValueError, match="another key space"):
            table.insert_from(0, other, 0)
        assert len(table) == len(other)  # nothing moved
        table.concat(table[:2])  # its own rows are welcome
        assert len(table) == len(other) + 2

    def test_rekeyed_rows_keep_the_ids_the_target_holds(self):
        activities = _two_component_trace()
        target = ActivityTable.from_activities(activities[6:])
        before = list(target.keys.context_ids.items())
        source = ActivityTable.from_activities(activities)
        moved = source.rekeyed(target.keys)
        assert moved.keys is target.keys
        assert list(target.keys.context_ids.items())[: len(before)] == before
        assert list(moved) == activities
        for row in range(len(moved)):
            ours, theirs = moved.activity(row), source.activity(row)
            assert ours.context is target.keys.contexts[ours.context_key]
            assert ours.context == theirs.context
            assert target.keys.connections[ours.message_key] == theirs.message.connection_key()
        target.concat(moved)  # one space now

    def test_a_ranker_fed_from_two_key_spaces_equals_one_fed_from_one(self):
        activities = _two_component_trace()
        half = len(activities) // 2
        spec = BackendSpec.streaming(window=0.010, chunk_size=5)
        whole = ActivityTable.from_activities(activities)
        split = [
            ActivityTable.from_activities(activities[:half]),
            ActivityTable.from_activities(activities[half:]),
        ]
        engine = IncrementalEngine(window=0.010)
        for part in split:
            engine.ingest(part)
        engine.flush()
        mixed = engine.result()
        assert all(cag.keys is split[0].keys for cag in mixed.cags)
        assert result_digest(mixed) == result_digest(spec.correlate(whole))

    def test_two_runs_share_no_plan_and_no_signature(self):
        spec = BackendSpec.batch()
        first = spec.correlate(_two_component_trace()).cags
        second = spec.correlate(_two_component_trace()).cags
        assert first[0].keys is not second[0].keys
        for one, two in zip(first, second):
            assert cag_signature(one) == cag_signature(two)
            assert cag_signature(one) is not cag_signature(two)
            assert one.analysis.plan is not None
            assert one.analysis.plan is not two.analysis.plan

    @pytest.mark.parametrize("kind", ["batch", "streaming", "sharded"])
    def test_a_finished_runs_key_space_is_freed_with_its_result(self, kind):
        result = getattr(BackendSpec, kind)().correlate(_two_component_trace())
        classify(result.cags)  # plans and signatures compiled into it
        keys = result.cags[0].keys
        assert keys.plans and keys.signatures
        dead = weakref.ref(keys)
        del keys, result
        gc.collect()
        assert dead() is None


class TestSamplerInvariance:
    """Sampled subsets are pinned to their pre-refactor values.

    The digests below were captured on commit 15b54ad (before interned
    keys existed) from the identical RuBiS run: sampling hashes the
    original request-root identity, so the interning refactor must not
    move a single decision.
    """

    PINS = {
        "uniform": (34, "53c7e6ba156f7c0048683caf2c1fdb0263791c8d16fded7f79248ad9b9cac6ce"),
        "budget": (54, "a562f440e6e7a94577c1460b3a0eaa8b9db654e14edc5169a5c8394ed99513b6"),
    }

    def test_sampled_subsets_match_pre_refactor_pins(self):
        activities = run_scenario(ScenarioConfig("rubis", clients=40, seed=1234)).activities()
        assert len(activities) == 2645
        specs = [SamplingSpec.uniform(rate=0.4, salt=3), SamplingSpec.budget(per_second=5)]
        for spec in specs:
            decisions = precompute_decisions(activities, spec)
            digest = hashlib.sha256(repr(sorted(decisions)).encode()).hexdigest()
            assert (len(decisions), digest) == self.PINS[spec.kind], spec.kind
