"""Unit tests for the correlation engine (Fig. 3 pseudo-code)."""

from helpers import CagView, in_space, keyed_engine
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.export import cag_to_dict
from repro.core.interning import ActivityTable, KeySpace
from repro.pipeline import BackendSpec
from repro.pipeline.equivalence import _fingerprint, _vertex_fingerprints, canonical_cags


WEB_CTX = ("www", "httpd", 100, 100)
APP_CTX = ("app", "java", 200, 201)
DB_CTX = ("db", "mysqld", 300, 301)


#: The key space this module's activities are keyed in, and its engines'.
KEYS = KeySpace()


def act(activity_type, ts, ctx, src, dst, size=100, rid=1):
    (activity,) = in_space(
        KEYS,
        Activity(
            type=activity_type,
            timestamp=ts,
            context=ContextId(*ctx),
            message=MessageId(src[0], src[1], dst[0], dst[1], size),
            request_id=rid,
        ),
    )
    return activity


def new_engine():
    return keyed_engine(KEYS)


CLIENT = ("9.9.9.9", 55000)
WEB_FRONT = ("10.0.0.1", 80)
WEB_OUT = ("10.0.0.1", 33000)
APP_IN = ("10.0.0.2", 8080)


def begin(ts=1.0, size=400):
    return act(ActivityType.BEGIN, ts, WEB_CTX, CLIENT, WEB_FRONT, size)


def simple_request(engine):
    """Feed a minimal BEGIN -> SEND -> RECEIVE -> SEND -> RECEIVE -> END."""
    b = begin(1.0)
    s1 = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600)
    r1 = act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 600)
    s2 = act(ActivityType.SEND, 1.3, APP_CTX, APP_IN, WEB_OUT, 900)
    r2 = act(ActivityType.RECEIVE, 1.4, WEB_CTX, APP_IN, WEB_OUT, 900)
    e = act(ActivityType.END, 1.5, WEB_CTX, WEB_FRONT, CLIENT, 2000)
    for activity in (b, s1, r1, s2, r2, e):
        engine.process(activity)
    return [b, s1, r1, s2, r2, e]


class TestBeginEnd:
    def test_begin_creates_open_cag(self):
        engine = new_engine()
        engine.process(begin())
        assert len(engine.open_cags) == 1
        assert len(engine.finished_cags) == 0
        assert engine.stats.begins == 1

    def test_end_finishes_cag_and_outputs_it(self):
        engine = new_engine()
        activities = simple_request(engine)
        assert len(engine.finished_cags) == 1
        assert len(engine.open_cags) == 0
        cag = engine.finished_cags[0]
        assert cag.finished
        assert len(cag) == len(activities)

    def test_end_without_context_parent_is_unmatched(self):
        engine = new_engine()
        engine.process(act(ActivityType.END, 1.0, WEB_CTX, WEB_FRONT, CLIENT, 2000))
        assert engine.stats.unmatched_ends == 1
        assert not engine.finished_cags

    def test_split_begin_parts_merge_into_one_root(self):
        engine = new_engine()
        engine.process(begin(1.0, size=300))
        engine.process(begin(1.0001, size=100))
        assert len(engine.open_cags) == 1
        assert engine.open_cags[0].root.size == 400

    def test_split_end_parts_merge(self):
        engine = new_engine()
        activities = simple_request(engine)
        extra_end = act(ActivityType.END, 1.50001, WEB_CTX, WEB_FRONT, CLIENT, 500)
        engine.process(extra_end)
        assert len(engine.finished_cags) == 1
        # the extra part only grew the first END's byte count
        assert activities[-1].size == 2500

    def test_split_end_part_after_finish_reaches_a_packed_cag(self):
        """The test above through the batch backend: packed rows, and a
        CAG packed when its END finishes it.  The trailing part arrives
        after that and grows the END the engine's context map still holds
        -- the object the finished CAG kept, so every view of the CAG
        carries it."""
        reference = new_engine()
        simple_request(reference)
        reference.process(act(ActivityType.END, 1.50001, WEB_CTX, WEB_FRONT, CLIENT, 500))
        (expected,) = reference.finished_cags

        # the table packs what was logged, whatever an engine did to sizes
        trace = simple_request(new_engine())
        trace.append(act(ActivityType.END, 1.50001, WEB_CTX, WEB_FRONT, CLIENT, 500))
        result = BackendSpec.batch(window=0.010).correlate(ActivityTable.from_activities(trace))
        (cag,) = result.cags
        assert cag.keys is not None
        # packed with the size the END had when it finished the CAG ...
        assert cag.column("size")[-1] == 2000
        # ... and grown after that, on the kept object
        assert cag.end_activity.size == 2500
        assert _fingerprint(cag.end_activity) == _fingerprint(expected.end_activity)
        # the digest's column fingerprints carry the grown END too
        assert _vertex_fingerprints(cag)[-1] == _fingerprint(cag.end_activity)
        assert _vertex_fingerprints(cag) == list(map(_fingerprint, CagView(cag).vertices))
        assert _vertex_fingerprints(cag) == _vertex_fingerprints(expected)
        assert canonical_cags([cag]) == canonical_cags([expected])
        exported, reference_export = cag_to_dict(cag), cag_to_dict(expected)
        del exported["cag_id"], reference_export["cag_id"]
        assert exported == reference_export

    def test_two_requests_in_same_worker_produce_two_cags(self):
        engine = new_engine()
        simple_request(engine)
        # second request handled by the same httpd worker (context reuse)
        b = begin(2.0)
        e = act(ActivityType.END, 2.5, WEB_CTX, WEB_FRONT, CLIENT, 1000)
        engine.process(b)
        engine.process(e)
        assert len(engine.finished_cags) == 2
        first, second = engine.finished_cags
        assert first.root is not second.root


class TestSendHandling:
    def test_send_joins_cag_with_context_edge(self):
        engine = new_engine()
        b = begin()
        s = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600)
        engine.process(b)
        engine.process(s)
        cag = engine.open_cags[0]
        assert s in cag
        assert CagView(cag).context_parent(s) is b

    def test_send_without_parent_is_ignored(self):
        engine = new_engine()
        s = act(ActivityType.SEND, 1.0, APP_CTX, APP_IN, WEB_OUT, 100)
        engine.process(s)
        assert engine.stats.unmatched_sends == 1
        assert s.message_key not in engine.mmap

    def test_consecutive_send_parts_merge_by_size(self):
        engine = new_engine()
        b = begin()
        part1 = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 400)
        part2 = act(ActivityType.SEND, 1.1001, WEB_CTX, WEB_OUT, APP_IN, 200)
        for activity in (b, part1, part2):
            engine.process(activity)
        assert engine.stats.merged_sends == 1
        assert part1.size == 600
        cag = engine.open_cags[0]
        assert part1 in cag
        assert part2 not in cag

    def test_sends_to_different_destinations_do_not_merge(self):
        engine = new_engine()
        b = begin()
        to_app = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 400)
        to_other = act(ActivityType.SEND, 1.2, WEB_CTX, WEB_OUT, ("10.0.0.9", 1234), 300)
        for activity in (b, to_app, to_other):
            engine.process(activity)
        assert engine.stats.merged_sends == 0
        assert len(engine.open_cags[0]) == 3


class TestReceiveHandling:
    def test_receive_matches_send_and_gets_message_edge(self):
        engine = new_engine()
        b = begin()
        s = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600)
        r = act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 600)
        for activity in (b, s, r):
            engine.process(activity)
        cag = engine.open_cags[0]
        assert CagView(cag).message_parent(r) is s
        assert s.message_key not in engine.mmap

    def test_unmatched_receive_is_counted_and_ignored(self):
        engine = new_engine()
        r = act(ActivityType.RECEIVE, 1.0, APP_CTX, WEB_OUT, APP_IN, 600)
        engine.process(r)
        assert engine.stats.unmatched_receives == 1

    def test_partial_receives_accumulate_until_balance(self):
        """Fig. 4: one send, receiver reads in three parts."""
        engine = new_engine()
        b = begin()
        s = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 900)
        parts = [
            act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 400),
            act(ActivityType.RECEIVE, 1.21, APP_CTX, WEB_OUT, APP_IN, 400),
            act(ActivityType.RECEIVE, 1.22, APP_CTX, WEB_OUT, APP_IN, 100),
        ]
        engine.process(b)
        engine.process(s)
        for part in parts[:-1]:
            engine.process(part)
            assert list(engine.mmap[s.message_key]) == [s]  # still pending
        engine.process(parts[-1])
        cag = engine.open_cags[0]
        assert parts[-1] in cag  # the completing part becomes the vertex
        assert parts[0] not in cag
        assert engine.stats.partial_receives == 2

    def test_n_to_n_segmentation_with_interleaved_delivery(self):
        """Fig. 4 general case: 2 send parts, 3 receive parts, interleaved."""
        engine = new_engine()
        b = begin()
        s1 = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 500)
        s2 = act(ActivityType.SEND, 1.1001, WEB_CTX, WEB_OUT, APP_IN, 400)
        r1 = act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 300)
        r2 = act(ActivityType.RECEIVE, 1.21, APP_CTX, WEB_OUT, APP_IN, 300)
        r3 = act(ActivityType.RECEIVE, 1.22, APP_CTX, WEB_OUT, APP_IN, 300)
        # delivery order interleaves receive parts between the send parts
        for activity in (b, s1, r1, r2, s2, r3):
            engine.process(activity)
        cag = engine.open_cags[0]
        receives_in_cag = [v for v in cag.vertices if v.type is ActivityType.RECEIVE]
        assert len(receives_in_cag) == 1
        assert CagView(cag).message_parent(receives_in_cag[0]) is s1

    def test_balance_reached_during_merge_still_adds_receive(self):
        """The byte balance can hit zero while a SEND part is merged."""
        engine = new_engine()
        b = begin()
        s1 = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 500)
        s2 = act(ActivityType.SEND, 1.1001, WEB_CTX, WEB_OUT, APP_IN, 400)
        r1 = act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 600)
        r2 = act(ActivityType.RECEIVE, 1.21, APP_CTX, WEB_OUT, APP_IN, 300)
        # all receiver bytes are delivered before the second send part
        for activity in (b, s1, r1, r2, s2):
            engine.process(activity)
        cag = engine.open_cags[0]
        receives_in_cag = [v for v in cag.vertices if v.type is ActivityType.RECEIVE]
        assert len(receives_in_cag) == 1
        assert s1.message_key not in engine.mmap

    def test_receive_gets_context_edge_only_within_same_cag(self):
        """Thread reuse (Fig. 3 lines 29-32): the recycled thread's previous
        activity belongs to another request and must not be linked."""
        engine = new_engine()
        first = simple_request(engine)
        # Second request: same app thread (APP_CTX) serves it.
        b = begin(2.0)
        s = act(ActivityType.SEND, 2.1, WEB_CTX, WEB_OUT, APP_IN, 600)
        r = act(ActivityType.RECEIVE, 2.2, APP_CTX, WEB_OUT, APP_IN, 600)
        for activity in (b, s, r):
            engine.process(activity)
        cag = engine.open_cags[0]
        # message edge present, but no context edge back to request 1
        view = CagView(cag)
        assert view.message_parent(r) is s
        assert view.context_parent(r) is None
        assert engine.stats.thread_reuse_blocked >= 1

    def test_receive_with_both_parents_in_same_cag_gets_both(self):
        engine = new_engine()
        activities = simple_request(engine)
        cag = engine.finished_cags[0]
        # finished, so packed: its columns hold the vertices fed
        assert list(cag.column("seq")) == [activity.seq for activity in activities]
        context_parent, message_parent = cag.parent_columns
        assert (message_parent[4], context_parent[4]) == (3, 1)
        view = CagView(cag)
        assert list(view.vertices) == activities
        r2 = view.vertices[4]
        assert view.message_parent(r2) is view.vertices[3]
        assert view.context_parent(r2) is view.vertices[1]


class TestLifecycleAndState:
    def test_finished_cag_state_is_cleaned_up(self):
        engine = new_engine()
        simple_request(engine)
        assert engine.mmap == {}
        assert engine.pending_state_size() >= 0
        assert len(engine._owner) == 0  # internal, but the leak matters

    def test_validate_every_finished_cag(self):
        engine = new_engine()
        simple_request(engine)
        for cag in engine.finished_cags:
            cag.validate()

    def test_request_ids_are_pure_per_cag(self):
        engine = new_engine()
        simple_request(engine)
        assert engine.finished_cags[0].request_ids() == {1}


WEB_CTX_2 = ("www", "httpd", 100, 102)
CLIENT_2 = ("9.9.9.8", 55001)


def two_pending_sends(engine, second_at=1.05):
    """Two requests, each in its own web worker, with one SEND pending on
    the same connection (a pooled persistent connection)."""
    first_begin = begin(1.0)
    first = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600, rid=1)
    second_begin = act(ActivityType.BEGIN, second_at, WEB_CTX_2, CLIENT_2, WEB_FRONT, 400, rid=2)
    second = act(ActivityType.SEND, second_at + 0.1, WEB_CTX_2, WEB_OUT, APP_IN, 700, rid=2)
    for activity in (first_begin, first, second_begin, second):
        engine.process(activity)
    return first, second


class TestIndexMaps:
    """The engine's ``mmap`` and ``cmap`` are plain dicts keyed by the
    run's ids; what they hold is what the engine's own steps leave."""

    def test_pending_sends_are_fifo_per_connection(self):
        engine = new_engine()
        first, second = two_pending_sends(engine)
        key = first.message_key
        assert list(engine.mmap) == [key]
        assert engine.mmap[key][0] is first and engine.mmap[key][1] is second
        receive = act(ActivityType.RECEIVE, 1.3, APP_CTX, WEB_OUT, APP_IN, 600)
        engine.process(receive)
        # the head was matched and left; the second SEND is the head now
        assert len(engine.mmap[key]) == 1 and engine.mmap[key][0] is second
        (owner,) = [cag for cag in engine.open_cags if first in cag]
        assert CagView(owner).message_parent(receive) is first

    def test_a_released_send_behind_the_head_leaves_the_queue(self):
        engine = new_engine()
        first, second = two_pending_sends(engine)
        # the second request finishes while its SEND is still pending,
        # behind the first request's: only that SEND leaves the queue
        engine.process(act(ActivityType.END, 1.3, WEB_CTX_2, WEB_FRONT, CLIENT_2, 900, rid=2))
        assert engine.stats.finished_cags == 1
        key = first.message_key
        assert len(engine.mmap[key]) == 1 and engine.mmap[key][0] is first

    def test_removing_a_send_that_is_not_pending_changes_nothing(self):
        engine = new_engine()
        first, second = two_pending_sends(engine)
        engine._remove_send(second)
        engine._remove_send(second)
        stray = act(ActivityType.SEND, 1.2, DB_CTX, ("10.0.0.3", 3306), APP_IN)
        engine._remove_send(stray)  # a connection with no entry at all
        assert list(engine.mmap) == [first.message_key]
        assert len(engine.mmap[first.message_key]) == 1
        assert engine.mmap[first.message_key][0] is first

    def test_pending_probe_is_by_identity(self):
        engine = new_engine()
        first, second = two_pending_sends(engine)
        twin = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600, rid=1)
        assert twin.message_key == first.message_key
        assert engine._parent_is_pending(first) and engine._parent_is_pending(second)
        assert not engine._parent_is_pending(twin)

    def test_a_matched_send_leaves_no_empty_queue(self):
        engine = new_engine()
        b = begin()
        s = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600)
        for activity in (b, s, act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 600)):
            engine.process(activity)
        assert engine.stats.finished_cags == 0 and len(engine.open_cags) == 1
        assert engine.mmap == {}

    def test_cmap_holds_the_latest_activity_of_each_context(self):
        engine = new_engine()
        b = begin()
        s = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 600)
        r = act(ActivityType.RECEIVE, 1.2, APP_CTX, WEB_OUT, APP_IN, 600)
        engine.process(b)
        assert list(engine.cmap) == [b.context_key] and engine.cmap[b.context_key] is b
        engine.process(s)
        assert list(engine.cmap) == [s.context_key] and engine.cmap[s.context_key] is s
        engine.process(r)
        assert engine.cmap[s.context_key] is s and engine.cmap[r.context_key] is r
        assert engine.cmap_recency == {s.context_key: 1.1, r.context_key: 1.2}

    def test_eviction_keeps_fresh_entries(self):
        engine = new_engine()
        stale, fresh = two_pending_sends(engine, second_at=2.0)
        key = stale.message_key
        engine.evict_stale(before=1.5)
        assert engine.stats.evicted_mmap_entries == 1
        assert len(engine.mmap[key]) == 1 and engine.mmap[key][0] is fresh
        # the idle worker's context goes, the busy one's stays
        assert engine.stats.evicted_cmap_entries == 1
        assert list(engine.cmap.values()) == [fresh]
        assert engine.cmap_recency == {fresh.context_key: fresh.timestamp}

    def test_touch_refreshes_recency_only_for_a_present_context(self):
        engine = new_engine()
        first, second = two_pending_sends(engine)
        engine._touch_context(first.context_key, 5.0)
        assert engine.cmap_recency[first.context_key] == 5.0
        engine._touch_context(first.context_key, 4.0)  # never backwards
        assert engine.cmap_recency[first.context_key] == 5.0
        absent = act(ActivityType.SEND, 1.0, DB_CTX, APP_IN, WEB_OUT).context_key
        engine._touch_context(absent, 5.0)
        assert absent not in engine.cmap and absent not in engine.cmap_recency
        assert engine.cmap[second.context_key] is second
        assert engine.cmap_recency[second.context_key] == second.timestamp

    def test_connections_and_contexts_do_not_collide(self):
        engine = new_engine()
        b = begin()
        to_app = act(ActivityType.SEND, 1.1, WEB_CTX, WEB_OUT, APP_IN, 400)
        to_db = act(ActivityType.SEND, 1.2, APP_CTX, ("10.0.0.2", 33001), ("10.0.0.3", 3306))
        engine.process(b)
        engine.process(to_app)
        engine.process(act(ActivityType.RECEIVE, 1.15, APP_CTX, WEB_OUT, APP_IN, 400))
        engine.process(to_db)
        assert list(engine.mmap) == [to_db.message_key]
        assert engine.mmap[to_db.message_key][0] is to_db
        assert engine.cmap[to_app.context_key] is to_app
        assert engine.cmap[to_db.context_key] is to_db

    def test_pending_state_counts_each_pending_send(self):
        engine = new_engine()
        two_pending_sends(engine)
        # 2 pending SENDs (one connection), 2 contexts, 4 owned vertices,
        # 2 open CAGs
        assert engine.pending_state_size() == 2 + 2 + 4 + 2
