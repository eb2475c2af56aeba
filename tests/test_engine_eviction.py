"""Eviction tests for segmented messages and merge recency.

Watermark eviction (streaming mode) interacts with the engine's n-to-n
kernel-part merging in two subtle ways:

* a pending SEND can be evicted while a *partial* RECEIVE is still
  outstanding -- every piece of matching bookkeeping (parked
  receive-backlog parts, ``_owner`` once the CAG goes too) must be
  reclaimed with it, and a recycled connection key must match the new
  traffic, never the ghost;
* merging a late kernel part into an existing BEGIN/SEND/END vertex grows
  the vertex in place without adding a new one, so the context's ``cmap``
  recency and the open CAG's newest-activity timestamp must be refreshed
  explicitly or eviction drops a *live* request (the bug fixed in this
  PR; the streaming end-to-end version lives in ``tests/test_stream.py``).
"""

from helpers import CagView, add_pending, in_space, keyed_engine
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import SampledOutCAG
from repro.core.interning import KeySpace

#: The key space this module's activities are keyed in, and its engines'.
KEYS = KeySpace()


def mkey(connection):
    """The ``mmap`` key of a connection 4-tuple."""
    return KEYS.message_ids[connection]


def ckey(ctx):
    """The ``cmap`` key of a ContextId."""
    return KEYS.context_ids[ctx.as_tuple()]


def new_engine(sampler=None):
    return keyed_engine(KEYS, sampler)


class _RejectAll:
    """Duck-typed sampler rejecting every request at its root."""

    is_adaptive = False

    def admit(self, root):
        return False

WEB_CTX = ContextId("web", "httpd", 100, 100)
CLIENT_KEY = ("10.9.0.1", 51000, "10.1.0.1", 80)
CONN_KEY = ("10.1.0.1", 41000, "10.1.0.2", 8080)


def act(activity_type, ts, ctx, msg_key, size, request_id=None):
    src_ip, src_port, dst_ip, dst_port = msg_key
    (activity,) = in_space(
        KEYS,
        Activity(
            type=activity_type,
            timestamp=ts,
            context=ctx,
            message=MessageId(src_ip, src_port, dst_ip, dst_port, size),
            request_id=request_id,
        ),
    )
    return activity


def open_request(engine, begin_ts=1.0, request_id=1):
    begin = act(ActivityType.BEGIN, begin_ts, WEB_CTX, CLIENT_KEY, 400, request_id)
    engine.process(begin)
    return begin


class TestSegmentedEviction:
    def test_evicting_pending_send_drops_partial_receive_entry(self):
        """A SEND whose RECEIVE only partially arrived is evicted: no
        matching state may leak (no ghost completion), while the rest of
        the CAG's state survives."""
        engine = new_engine()
        open_request(engine)
        send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(send)
        # a later SEND on another connection keeps the CAG's newest vertex
        # fresh, so only the mmap entry is old enough to evict
        other_key = ("10.1.0.1", 42000, "10.1.0.3", 3306)
        late_send = act(ActivityType.SEND, 1.5, WEB_CTX, other_key, 50, 1)
        engine.process(late_send)

        partial = act(
            ActivityType.RECEIVE,
            1.15,
            ContextId("app", "java", 250, 250),
            CONN_KEY,
            40,
            1,
        )
        engine.process(partial)
        assert engine.stats.partial_receives == 1
        assert send.size == 60  # 40 of 100 bytes matched so far

        evicted = engine.evict_stale(before=1.3)
        assert engine.stats.evicted_mmap_entries == 1
        assert evicted >= 1
        assert engine._backlog_size == 0  # no matching state leaked
        assert mkey(CONN_KEY) not in engine.mmap
        assert list(engine.mmap[mkey(other_key)]) == [late_send]  # fresh entry untouched
        assert len(engine.open_cags) == 1  # the CAG itself is still live

        # the rest of the segmented RECEIVE now finds nothing: counted as
        # unmatched, no crash, no bogus match against other state
        rest = act(
            ActivityType.RECEIVE,
            1.35,
            ContextId("app", "java", 250, 250),
            CONN_KEY,
            60,
            1,
        )
        engine.process(rest)
        assert engine.stats.unmatched_receives == 1

    def test_evicted_then_recycled_connection_key_matches_new_traffic(self):
        """After a whole request is evicted, a new request reusing the same
        connection 4-tuple must match its own SEND -- and no ``_owner`` or
        receive-backlog entries of the ghost may survive."""
        engine = new_engine()
        open_request(engine, begin_ts=1.0, request_id=1)
        ghost_send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(ghost_send)
        ghost_partial = act(
            ActivityType.RECEIVE,
            1.12,
            ContextId("app", "java", 250, 250),
            CONN_KEY,
            30,
            1,
        )
        engine.process(ghost_partial)

        evicted = engine.evict_stale(before=2.0)
        assert evicted >= 1
        assert engine.stats.evicted_open_cags == 1
        assert engine.stats.evicted_mmap_entries == 1
        assert engine.open_cags == []
        assert engine._owner == {}  # no stale ownership
        assert engine._backlog_size == 0  # no stale partial matches
        assert engine.mmap == {}

        # request 2 recycles the exact connection key
        open_request(engine, begin_ts=3.0, request_id=2)
        new_send = act(ActivityType.SEND, 3.1, WEB_CTX, CONN_KEY, 80, 2)
        engine.process(new_send)
        assert list(engine.mmap[mkey(CONN_KEY)]) == [new_send]  # never the ghost
        receive = act(
            ActivityType.RECEIVE,
            3.15,
            ContextId("app", "java", 251, 251),
            CONN_KEY,
            80,
            2,
        )
        engine.process(receive)
        assert mkey(CONN_KEY) not in engine.mmap  # fully matched
        (cag,) = engine.open_cags
        assert cag.request_ids() == {2}
        assert engine._backlog_size == 0

    def test_evicting_parked_oversized_receive_part(self):
        """A receive part whose bytes ran ahead of the sender's merged
        writes parks in the backlog; when its SEND never balances within
        the horizon, eviction must reclaim the parked part too."""
        engine = new_engine()
        open_request(engine)
        send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(send)
        oversized = act(
            ActivityType.RECEIVE,
            1.15,
            ContextId("app", "java", 250, 250),
            CONN_KEY,
            140,
            1,
        )
        engine.process(oversized)
        assert engine.stats.oversized_receives == 1
        assert send.size == 0  # balanced, awaiting a possible merge
        assert engine._backlog_size == 1  # 40 leftover bytes parked

        evicted = engine.evict_stale(before=1.3)
        assert evicted >= 2  # the SEND and the parked part
        assert engine.stats.evicted_mmap_entries == 1
        assert engine.stats.evicted_backlog_parts == 1
        assert engine._backlog_size == 0
        assert engine._recv_backlog == {}


class TestGhostSendDrop:
    def test_a_send_whose_cag_is_gone_is_dropped_and_counted(self):
        """``_settle``'s ghost drop: a pending SEND whose CAG has finished
        (it has no owner any more) must not capture the next RECEIVE on
        its connection; it is dropped and counted.  Finishing and
        eviction both take a CAG's SENDs out of the mmap, so the engine
        leaves no ghost on its own -- the test re-registers a finished
        request's SEND by hand."""
        engine = new_engine()
        open_request(engine, begin_ts=1.0, request_id=1)
        ghost = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(ghost)
        back_to_client = ("10.1.0.1", 80, "10.9.0.1", 51000)
        engine.process(act(ActivityType.END, 1.2, WEB_CTX, back_to_client, 200, 1))
        assert len(engine.finished_cags) == 1
        assert mkey(CONN_KEY) not in engine.mmap
        add_pending(engine.mmap, ghost)  # pending, and owned by no CAG

        # request 2, on another web worker, sends on the same connection;
        # its RECEIVE meets the ghost at the head and goes to the backlog
        web_2 = ContextId("web", "httpd", 101, 101)
        engine.process(
            act(ActivityType.BEGIN, 2.0, web_2, ("10.9.0.2", 51001, "10.1.0.1", 80), 400, 2)
        )
        send = act(ActivityType.SEND, 2.1, web_2, CONN_KEY, 100, 2)
        engine.process(send)
        app = ContextId("app", "java", 250, 250)
        receive = act(ActivityType.RECEIVE, 2.2, app, CONN_KEY, 100, 2)
        engine.process(receive)

        # the ghost drop is booked once, as an unmatched SEND; the RECEIVE
        # is matched to the live SEND, so it is not unmatched too
        assert engine.stats.unmatched_sends == 1
        assert engine.stats.unmatched_receives == 0
        assert mkey(CONN_KEY) not in engine.mmap  # ghost gone, send matched
        assert engine._backlog_size == 0
        (cag,) = engine.open_cags
        assert receive in cag and [e.parent for e in CagView(cag).parents_of(receive)] == [send]


class TestMergeRecency:
    def test_begin_part_merge_refreshes_cmap_and_cag_recency(self):
        """Kernel parts of a request body merged into the BEGIN must count
        as activity: without the refresh, eviction right after the merge
        drops the live context and its CAG."""
        engine = new_engine()
        begin = open_request(engine, begin_ts=1.0)
        part = act(ActivityType.BEGIN, 1.9, WEB_CTX, CLIENT_KEY, 200, 1)
        engine.process(part)
        assert begin.size == 600  # merged, no second CAG
        assert len(engine.open_cags) == 1

        (cag,) = engine.open_cags
        assert cag.newest_timestamp == 1.9
        assert engine.cmap_recency.get(ckey(WEB_CTX)) == 1.9

        # eviction between the parts' span must not touch the request
        engine.evict_stale(before=1.5)
        assert len(engine.open_cags) == 1
        assert engine.stats.evicted_open_cags == 0
        assert engine.cmap.get(ckey(WEB_CTX)) is begin

    def test_send_part_merge_refreshes_recency(self):
        engine = new_engine()
        open_request(engine, begin_ts=1.0)
        send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(send)
        part = act(ActivityType.SEND, 1.9, WEB_CTX, CONN_KEY, 60, 1)
        engine.process(part)
        assert engine.stats.merged_sends == 1
        (cag,) = engine.open_cags
        assert cag.newest_timestamp == 1.9
        assert engine.cmap_recency.get(ckey(WEB_CTX)) == 1.9
        engine.evict_stale(before=1.5)
        assert len(engine.open_cags) == 1
        # the pending SEND itself is evictable by its first-part timestamp
        # (its receiver went silent), but the CAG and context survive
        assert engine.stats.evicted_open_cags == 0
        assert engine.stats.evicted_cmap_entries == 0

    def test_end_part_merge_refreshes_cmap_recency(self):
        engine = new_engine()
        begin = open_request(engine, begin_ts=1.0)
        end = act(ActivityType.END, 1.2, WEB_CTX, CLIENT_KEY, 2000, 1)
        engine.process(end)
        assert begin is not None
        assert engine.stats.finished_cags == 1
        part = act(ActivityType.END, 1.9, WEB_CTX, CLIENT_KEY, 500, 1)
        engine.process(part)
        assert end.size == 2500  # merged into the finished END
        assert engine.cmap_recency.get(ckey(WEB_CTX)) == 1.9


class TestSampledOutPurge:
    """Sampled-out requests must be purged, never leaked.

    Same class of hazard as the merge-recency eviction bug above: a
    request the sampler rejected still flows through the index maps (the
    ranker's decisions depend on them), so every piece of its state --
    the ``cmap`` entry and recency, pending ``mmap`` SENDs, ownership,
    the tombstone itself -- must be reclaimed when the request completes
    or is evicted.  A long-running stream sampling at 1% would otherwise
    grow state with the 99% it decided *not* to trace.
    """

    def test_multi_part_begin_merges_into_the_tombstone(self):
        """Late kernel parts of a sampled-out request body must merge into
        the tombstone root -- not open a second (now untracked) CAG."""
        engine = new_engine(_RejectAll())
        begin = open_request(engine, begin_ts=1.0)
        assert engine.stats.sampled_out_roots == 1
        part = act(ActivityType.BEGIN, 1.9, WEB_CTX, CLIENT_KEY, 200, 1)
        engine.process(part)
        assert begin.size == 600  # merged into the tombstone's root
        assert engine.stats.sampled_out_roots == 1  # no second decision
        assert len(engine._open) == 1
        (tombstone,) = engine._open.values()
        assert isinstance(tombstone, SampledOutCAG)
        # the merge refreshed the recency structures, exactly as for a
        # traced request (the PR 2 bug class)
        assert engine.cmap_recency.get(ckey(WEB_CTX)) == 1.9
        assert tombstone.newest_timestamp == 1.9

    def test_completion_purges_cmap_and_mmap(self):
        engine = new_engine(_RejectAll())
        open_request(engine, begin_ts=1.0)
        send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(send)
        assert list(engine.mmap[mkey(CONN_KEY)]) == [send]  # pending, as in a full run
        end = act(ActivityType.END, 1.3, WEB_CTX, CLIENT_KEY, 2000, 1)
        finished = engine.process(end)
        assert finished is None  # tombstones are never emitted
        assert engine.stats.sampled_out_finished == 1
        assert engine.stats.finished_cags == 0
        assert engine.finished_cags == []
        # cmap, its recency and the mmap purged with the request
        assert engine.cmap == {}
        assert engine.cmap_recency.get(ckey(WEB_CTX)) is None
        assert engine.mmap == {}
        assert engine._owner == {}
        assert engine._backlog_size == 0
        assert engine.pending_state_size() == 0

    def test_eviction_drops_tombstones_without_retaining_them(self):
        engine = new_engine(_RejectAll())
        open_request(engine, begin_ts=1.0)
        send = act(ActivityType.SEND, 1.1, WEB_CTX, CONN_KEY, 100, 1)
        engine.process(send)
        partial = act(
            ActivityType.RECEIVE,
            1.15,
            ContextId("app", "java", 250, 250),
            CONN_KEY,
            40,
            1,
        )
        engine.process(partial)
        assert send.size == 60  # partially matched against the tombstone

        evicted = engine.evict_stale(before=5.0)
        assert evicted >= 1
        assert engine.stats.evicted_sampled_out_cags == 1
        assert engine.stats.evicted_open_cags == 0  # not counted as a loss
        # evicted, not leaked: nothing retained for incomplete reporting
        assert engine.evicted_cags == []
        assert engine._evicted == []
        assert engine._open == {}
        assert engine._owner == {}
        assert engine._backlog_size == 0
        assert engine.mmap == {}
        assert engine.cmap == {}

    def test_purge_spares_live_contexts_of_other_requests(self):
        """The cmap purge is identity-guarded: a context whose latest
        activity already belongs to a *newer* (traced) request keeps its
        entry when the old tombstone completes."""

        class RejectFirst:
            is_adaptive = False

            def __init__(self):
                self.calls = 0

            def admit(self, root):
                self.calls += 1
                return self.calls > 1

        engine = new_engine(RejectFirst())
        open_request(engine, begin_ts=1.0, request_id=1)  # sampled out
        end_one = act(ActivityType.END, 1.2, WEB_CTX, CLIENT_KEY, 500, 1)
        engine.process(end_one)
        assert engine.cmap_recency.get(ckey(WEB_CTX)) is None  # purged

        begin_two = open_request(engine, begin_ts=2.0, request_id=2)  # traced
        assert engine.cmap.get(ckey(WEB_CTX)) is begin_two
        end_two = act(ActivityType.END, 2.2, WEB_CTX, CLIENT_KEY, 700, 2)
        cag = engine.process(end_two)
        assert cag is not None and cag.request_ids() == {2}
        # the traced request's completion does not purge its context
        assert engine.cmap.get(ckey(WEB_CTX)) is end_two
