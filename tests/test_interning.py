"""Tests for the columnar core (repro.core.interning).

Three invariants keep the interning refactor honest:

* **Round trip** -- interning is injective and first-seen ordered, so
  ``intern(x)`` then ``resolve`` must give back the original identity,
  and re-interning the same identity must return the same dense int
  (property-tested over generated ``ContextId``/``MessageId`` values).
* **Snapshot equality** -- an interner that installs another's snapshot
  rebuilds the *identical* key space, which is what lets a checkpoint's
  pickled activities carry their interned ints verbatim into a resume in
  a new process (asserted here directly, and end to end by the
  SIGKILL/resume subprocess test in ``tests/test_checkpoint.py``).
* **Sampler invariance** -- sampling decisions hash the original string
  identity, never the interned ints, so the sampled request subset is
  byte-identical to the pre-refactor pins captured at commit 15b54ad.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.interning import INTERNER, ActivityTable, KeyInterner
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
        interner = KeyInterner()
        ids = [interner.intern_context(c) for c in items]
        for context, cid in zip(items, ids):
            assert interner.resolve_context(cid).as_tuple() == context.as_tuple()
            assert interner.resolve_context_key(cid) == context.as_tuple()
        # Re-interning the same identities is stable (first-seen wins).
        assert [interner.intern_context(c) for c in items] == ids
        # Ids are dense: one per distinct identity, counted from zero.
        distinct = {c.as_tuple() for c in items}
        assert sorted(set(ids)) == list(range(len(distinct)))

    @given(st.lists(messages, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_message_intern_resolve_round_trip(self, items):
        interner = KeyInterner()
        ids = [interner.intern_message_key(m.connection_key()) for m in items]
        for message, mid in zip(items, ids):
            assert interner.resolve_message_key(mid) == message.connection_key()
        assert [interner.intern_message_key(m.connection_key()) for m in items] == ids
        distinct = {m.connection_key() for m in items}
        assert sorted(set(ids)) == list(range(len(distinct)))

    @given(st.lists(names, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_node_intern_resolve_round_trip(self, hostnames):
        interner = KeyInterner()
        ids = [interner.intern_node(h) for h in hostnames]
        for hostname, nid in zip(hostnames, ids):
            assert interner.resolve_node(nid) == hostname
        assert [interner.intern_node(h) for h in hostnames] == ids

    def test_context_key_and_object_paths_share_ids(self):
        interner = KeyInterner()
        context = ContextId("host", "prog", 1, 2)
        by_tuple = interner.intern_context_key(context.as_tuple())
        assert interner.intern_context(context) == by_tuple
        # The object path backfills the canonical object.
        assert interner.resolve_context(by_tuple).as_tuple() == context.as_tuple()


class TestSnapshot:
    def _populated(self):
        interner = KeyInterner()
        for i in range(5):
            interner.intern_context(ContextId(f"host{i}", "prog", i, i))
            interner.intern_message_key(("10.0.0.1", 1000 + i, "10.0.0.2", 80))
            interner.intern_node(f"host{i}")
        return interner

    def test_install_rebuilds_identical_key_space(self):
        parent = self._populated()
        snapshot = parent.snapshot()
        worker = KeyInterner()
        worker.install(snapshot)
        assert worker.snapshot() == snapshot
        assert worker.sizes() == parent.sizes()
        for cid in range(parent.sizes()["contexts"]):
            assert worker.resolve_context_key(cid) == parent.resolve_context_key(cid)

    def test_install_is_idempotent_and_extends(self):
        parent = self._populated()
        worker = KeyInterner()
        worker.install(parent.snapshot())
        worker.install(parent.snapshot())  # no-op: identical prefix
        parent.intern_node("late-host")
        worker.install(parent.snapshot())  # prefix-extends
        assert worker.snapshot() == parent.snapshot()

    def test_component_ids_ignore_pid_and_tid_and_survive_install(self):
        interner = KeyInterner()
        worker_a = interner.intern_context(ContextId("app", "java", 1, 1))
        database = interner.intern_context(ContextId("db", "mysqld", 2, 2))
        worker_b = interner.intern_context(ContextId("app", "java", 1, 7))
        # Asked for out of interning order: ids are first-asked, per component.
        assert interner.component_of(database) == 0
        assert interner.component_of(worker_a) == interner.component_of(worker_b) == 1
        snapshot = interner.snapshot()
        assert set(snapshot) == {"contexts", "messages", "nodes"}  # never shipped
        snapshot["contexts"].append(("app", "java", 9, 9))
        snapshot["contexts"].append(("cache", "memcached", 3, 3))
        interner.install(snapshot)
        assert interner.component_of(database) == 0
        assert interner.component_of(3) == 1
        assert interner.component_of(4) == 2

    def test_install_rejects_conflicting_assignment(self):
        parent = self._populated()
        worker = KeyInterner()
        worker.intern_node("someone-else-was-first")
        with pytest.raises(ValueError, match="conflicts"):
            worker.install(parent.snapshot())

    def test_global_interner_snapshot_installs_onto_fresh_interner(self):
        # Exactly what a checkpoint resume in a fresh process does before
        # it unpickles the engine (a resume in the writing process
        # degenerates to a prefix no-op).
        make_activity()  # ensure the global interner is non-empty
        snapshot = INTERNER.snapshot()
        worker = KeyInterner()
        worker.install(snapshot)
        assert worker.snapshot() == snapshot


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
        for row, original in enumerate(activities):
            assert table.timestamp(row) == original.timestamp
            assert table.context_key(row) == original.context_key
            assert table.message_key(row) == original.message_key
            assert table.node_key(row) == original.node_key
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
