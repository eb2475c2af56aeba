"""Unit tests for the ranker: candidate selection, noise, disturbances."""

from collections import deque

import pytest

from helpers import (
    SyntheticTrace,
    add_pending,
    assert_ranker_aligned,
    assert_ranker_drained,
    keyed_engine,
    message_id,
    node_id,
    packed,
)
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.engine import CorrelationEngine
from repro.core.log_format import ActivityClassifier, FrontendSpec
from repro.core.ranker import ActivitySource, Ranker
from repro.pipeline import BackendSpec
from repro.topology import ScenarioConfig, run_scenario, scenario_names
from repro.topology.workload import WorkloadStages


def act(
    activity_type,
    ts,
    host,
    program="p",
    pid=1,
    tid=1,
    src=("1.1.1.1", 10),
    dst=("2.2.2.2", 20),
    size=100,
    rid=None,
):
    return Activity(
        type=activity_type,
        timestamp=ts,
        context=ContextId(host, program, pid, tid),
        message=MessageId(src[0], src[1], dst[0], dst[1], size),
        request_id=rid,
    )


def drain(ranker, engine=None):
    """Pull every candidate; if an engine is given, feed it too."""
    delivered = []
    while True:
        candidate = ranker.rank()
        if candidate is None:
            return delivered
        delivered.append(candidate)
        if engine is not None:
            engine.process(candidate)


class TestActivitySource:
    def test_sorts_by_local_timestamp(self):
        activities = [act(ActivityType.SEND, 2.0, "n"), act(ActivityType.SEND, 1.0, "n")]
        source = ActivitySource("n", packed(activities))
        assert source.peek_timestamp() == 1.0
        assert len(source) == 2

    def test_fetch_until_respects_limit(self):
        activities = [act(ActivityType.SEND, t, "n") for t in (1.0, 2.0, 3.0)]
        source = ActivitySource("n", packed(activities))
        assert source.fetch_until(2.0) == 2
        taken = [source.activity(index) for index in range(source.fence)]
        assert [a.timestamp for a in taken] == [1.0, 2.0]
        assert not source.exhausted

    def test_fetch_one_forces_progress(self):
        source = ActivitySource("n", packed([act(ActivityType.SEND, 5.0, "n")]))
        assert source.fetch_one()
        assert source.activity(0).timestamp == 5.0
        assert not source.fetch_one()
        assert source.exhausted

    def test_future_send_index_tracks_fetches(self):
        send = act(ActivityType.SEND, 1.0, "n")
        rows = packed([send])
        source = ActivitySource("n", rows)
        key = message_id(rows.keys, send)
        # the key's last recorded position at or behind the fence: a send
        # with it still awaits fetch
        assert source._positions()[key][-1] >= source.fence
        source.fetch_until(10.0)
        assert source._positions()[key][-1] < source.fence

    def test_fetch_through_send_stops_at_matching_key(self):
        first = act(ActivityType.RECEIVE, 1.0, "n", src=("9.9.9.9", 1), dst=("1.1.1.1", 2))
        target = act(ActivityType.SEND, 2.0, "n")
        later = act(ActivityType.SEND, 3.0, "n", src=("3.3.3.3", 5))
        rows = packed([first, target, later])
        source = ActivitySource("n", rows)
        assert source.fetch_through_send(message_id(rows.keys, target)) == 2
        assert source.activity(1) == target
        assert not source.exhausted


class TestRankerBasics:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            Ranker(packed({}), {}, window=0.0)

    def test_ingest_refuses_anything_but_a_table(self):
        ranker = Ranker(None, {}, window=0.01)
        with pytest.raises(TypeError, match="from_activities"):
            ranker.ingest([act(ActivityType.SEND, 1.0, "n")])
        assert ranker.ingest(packed([act(ActivityType.SEND, 1.0, "n")])) == 1

    def test_empty_sources_yield_no_candidates(self):
        ranker = Ranker(packed({}), {}, window=0.01)
        assert ranker.rank() is None
        assert ranker.exhausted()

    def test_single_stream_is_delivered_in_timestamp_order(self):
        activities = [
            act(ActivityType.SEND, t, "n", src=("1.1.1.1", t_i))
            for t_i, t in enumerate((3.0, 1.0, 2.0))
        ]
        ranker = Ranker(packed({"n": activities}), {}, window=0.01)
        delivered = drain(ranker)
        assert [a.timestamp for a in delivered] == [1.0, 2.0, 3.0]
        assert ranker.stats.delivered == 3

    def test_window_smaller_than_gaps_still_progresses(self):
        activities = [
            act(ActivityType.SEND, t, "n", src=("1.1.1.1", int(t))) for t in (0.0, 10.0, 20.0)
        ]
        ranker = Ranker(packed({"n": activities}), {}, window=0.001)
        assert len(drain(ranker)) == 3

    def test_rule2_priority_send_before_receive_across_nodes(self):
        # Same timestamps: the SEND must be delivered before the RECEIVE.
        send = act(ActivityType.SEND, 1.0, "a")
        receive = act(ActivityType.RECEIVE, 1.0, "b")
        engine = CorrelationEngine()
        ranker = Ranker(packed({"a": [send], "b": [receive]}), engine.mmap, window=1.0)
        first = ranker.rank()
        assert first == send
        assert ranker.stats.rule2_selections >= 1

    def test_rule1_selects_receive_once_send_is_in_mmap(self):
        send = act(ActivityType.SEND, 1.0, "a")
        receive = act(ActivityType.RECEIVE, 1.1, "b")
        mmap = {}
        ranker = Ranker(packed({"a": [send], "b": [receive]}), mmap, window=1.0)
        delivered = ranker.rank()
        assert delivered == send
        add_pending(mmap, delivered)  # the engine would do this
        assert ranker.rank() == receive
        assert ranker.stats.rule1_selections == 1

    def test_begin_has_highest_urgency(self):
        begin = act(ActivityType.BEGIN, 1.0, "a")
        send = act(ActivityType.SEND, 1.0, "b")
        ranker = Ranker(packed({"a": [begin], "b": [send]}), {}, window=1.0)
        assert ranker.rank() == begin

    def test_buffered_count_and_exhausted(self):
        activities = [act(ActivityType.SEND, 1.0, "n")]
        ranker = Ranker(packed({"n": activities}), {}, window=1.0)
        assert not ranker.exhausted()
        drain(ranker)
        assert ranker.exhausted()
        assert ranker.buffered_count() == 0


class TestNoiseHandling:
    def test_receive_without_any_matching_send_is_discarded(self):
        noise = act(ActivityType.RECEIVE, 1.0, "db", src=("8.8.8.8", 77))
        legit = act(ActivityType.SEND, 1.1, "db", src=("2.2.2.2", 5))
        ranker = Ranker(packed({"db": [noise, legit]}), {}, window=1.0)
        delivered = drain(ranker)
        assert noise not in delivered
        assert legit in delivered
        assert ranker.stats.noise_discarded == 1

    def test_receive_with_future_send_is_not_noise(self):
        send = act(ActivityType.SEND, 5.0, "a")
        receive = act(ActivityType.RECEIVE, 1.0, "b")  # appears early (skewed clock)
        mmap = {}
        ranker = Ranker(packed({"a": [send], "b": [receive]}), mmap, window=0.5)
        delivered = []
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            if candidate.type is ActivityType.SEND:
                add_pending(mmap, candidate)
            delivered.append(candidate)
        assert delivered == [send, receive]
        assert ranker.stats.noise_discarded == 0

    def test_begin_is_never_noise(self):
        begin = act(ActivityType.BEGIN, 1.0, "web")
        ranker = Ranker(packed({"web": [begin]}), {}, window=1.0)
        assert drain(ranker) == [begin]
        assert ranker.stats.noise_discarded == 0

    def test_is_noise_consults_mmap(self):
        send = act(ActivityType.SEND, 0.5, "a")
        receive = act(ActivityType.RECEIVE, 1.0, "b")
        table = packed({"b": [receive]})
        mmap = {message_id(table.keys, receive): deque([send])}
        ranker = Ranker(table, mmap, window=1.0)
        assert drain(ranker) == [receive]
        assert ranker.stats.noise_discarded == 0
        assert ranker.stats.rule1_selections == 1


class TestDisturbances:
    def test_concurrency_disturbance_is_resolved(self):
        """The Fig. 6 case: both queue heads are RECEIVEs blocking each
        other's SENDs; the ranker must still deliver sends first."""
        # request 1: node1 sends to node2; request 2: node2 sends to node1
        r_from_2 = act(
            ActivityType.RECEIVE, 1.0, "node1", pid=11, src=("10.0.0.2", 200), dst=("10.0.0.1", 100)
        )
        s_to_2 = act(
            ActivityType.SEND, 1.0001, "node1", pid=12, src=("10.0.0.1", 100), dst=("10.0.0.2", 200)
        )
        r_from_1 = act(
            ActivityType.RECEIVE, 1.0, "node2", pid=21, src=("10.0.0.1", 100), dst=("10.0.0.2", 200)
        )
        s_to_1 = act(
            ActivityType.SEND, 1.0001, "node2", pid=22, src=("10.0.0.2", 200), dst=("10.0.0.1", 100)
        )
        engine = CorrelationEngine()
        ranker = Ranker(
            packed({"node1": [r_from_2, s_to_2], "node2": [r_from_1, s_to_1]}),
            engine.mmap,
            window=1.0,
        )
        delivered = []
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            # emulate just the mmap effect of the engine so Rule 1 can fire
            if candidate.type is ActivityType.SEND:
                add_pending(engine.mmap, candidate)
            delivered.append(candidate)
        order = {a.seq: i for i, a in enumerate(delivered)}
        assert order[s_to_2.seq] < order[r_from_1.seq]
        assert order[s_to_1.seq] < order[r_from_2.seq]
        assert len(delivered) == 4

    def test_clock_skew_beyond_window_pulls_sender_stream(self):
        """A RECEIVE whose local timestamp precedes its SEND (skewed clock)
        must not be delivered before the SEND even with a tiny window."""
        send = act(ActivityType.SEND, 10.0, "fast")
        receive = act(ActivityType.RECEIVE, 9.0, "slow")
        engine = CorrelationEngine()
        ranker = Ranker(packed({"fast": [send], "slow": [receive]}), engine.mmap, window=0.001)
        delivered = []
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            if candidate.type is ActivityType.SEND:
                add_pending(engine.mmap, candidate)
            delivered.append(candidate)
        assert delivered[0] == send
        assert delivered[1] == receive

    def test_promotion_never_reorders_same_context(self):
        """A blocking SEND is not promoted over an earlier activity of its
        own execution entity (that would fabricate a causal order)."""
        trace = SyntheticTrace(skews={"db": -0.5})
        trace.three_tier_request(request_id=1, start=1.0)
        trace.three_tier_request(request_id=2, start=1.05)
        table = packed(trace.by_node())
        engine = keyed_engine(table.keys)
        ranker = Ranker(table, engine.mmap, window=0.001)
        seen_positions = {}
        index = 0
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            engine.process(candidate)
            key = candidate.context_key
            previous = seen_positions.get(key)
            if previous is not None:
                assert candidate.seq > previous or candidate.timestamp >= 0
            seen_positions[key] = candidate.seq
            index += 1
        assert index > 0


class TestIdentityDelivery:
    def test_window_low_cache_invalidated_when_promotion_exposes_earlier_head(self):
        """Delivering a promoted SEND can expose a queue head *below* the
        low edge the last refill derived (promotion breaks the queue's
        timestamp monotonicity).  A lower edge admits nothing new, so no
        refill is asked for -- but the next one must derive the edge from
        the exposed head, or it fetches beyond the true window and
        candidate selection diverges."""
        # node "m": a RECEIVE at t=2.0 and SENDs at t=11.5 and t=12.5;
        # node "n": a RECEIVE at t=1.0 hiding a SEND at t=3.0 that will be
        # promoted over it.  Window 10: the 11.5 row is in reach of a low
        # edge of 2.0 but not of 1.0, the 12.5 row only of a stale 3.0.
        recv_m = act(ActivityType.RECEIVE, 2.0, "m", src=("7.7.7.7", 70))
        far_m = act(ActivityType.SEND, 11.5, "m", src=("6.6.6.6", 60))
        farther_m = act(ActivityType.SEND, 12.5, "m", src=("6.6.6.6", 61))
        recv_n = act(ActivityType.RECEIVE, 1.0, "n", src=("8.8.8.8", 80))
        send_x = act(ActivityType.SEND, 3.0, "n")
        ranker = Ranker(
            packed({"m": [recv_m, far_m, farther_m], "n": [recv_n, send_x]}),
            {},
            window=10.0,
        )
        ranker._refill()
        assert ranker._low == 1.0 and ranker.buffered_count() == 3
        slot_n = ranker._slot_of[node_id(ranker.keys, recv_n)]
        ranker._promote_send(slot_n, 1)  # queue n: [send(3.0), recv(1.0)]
        assert ranker._refill_due  # the head that held the edge was replaced
        assert_ranker_aligned(ranker)
        ranker._refill()
        assert ranker._low == 2.0  # heads are 3.0 (n) and 2.0 (m)
        assert ranker.buffered_count() == 4  # ... which puts 11.5 in the window
        delivered = ranker._pop_head(slot_n)
        assert delivered == send_x  # ... which exposes recv(1.0) on n
        assert_ranker_aligned(ranker)
        ranker._refill()
        assert ranker._low == 1.0  # not the 2.0 of the refill before
        assert ranker.buffered_count() == 3
        assert farther_m not in ranker.buffered_activities()

    def test_promoted_send_is_delivered_itself(self):
        """After a Fig. 6 promotion the rotated SEND is the queue head and
        is what is delivered, with the position index repaired for the
        sibling on its connection it jumped over."""
        blocker = act(ActivityType.RECEIVE, 1.0, "n", src=("9.9.9.9", 1))
        first = act(ActivityType.SEND, 1.1, "n", rid=1)
        twin = act(ActivityType.SEND, 1.1, "n", rid=2)
        ranker = Ranker(packed({"n": [blocker, first, twin]}), {}, window=10.0)
        ranker._refill()
        slot = ranker._slot_of[node_id(ranker.keys, blocker)]
        source = ranker._slot_sources[slot]
        twin_key = message_id(ranker.keys, twin)
        assert source.buffered()[2] == twin
        # blockage resolution has looked the send up (and so built the
        # index) by the time it promotes
        assert ranker._find_buffered_send(twin_key) == (slot, 1)
        ranker._promote_send(slot, 2)  # the *second* send, over its sibling
        assert ranker.stats.head_swaps == 1
        assert source.buffered() == [twin, blocker, first]
        # the promoted send leads its key's positions, the sibling moved up
        assert list(source._send_positions[twin_key]) == [0, 2]
        assert_ranker_aligned(ranker)
        assert ranker._pop_head(slot) == twin
        assert_ranker_aligned(ranker)
        # the sibling SEND is still indexed as buffered under its key
        found = ranker._find_buffered_send(message_id(ranker.keys, first))
        assert found is not None
        found_slot, index = found
        assert found_slot == slot
        assert ranker._slot_sources[found_slot].activity(index) == first


class TestSameTimestampTies:
    """Within one node, ties break by log position (``sort_key``)."""

    FRONTEND = FrontendSpec(
        ip="10.0.0.1", port=80, internal_ips=frozenset({"10.0.0.1", "10.0.0.2"})
    )
    # A one-worker frontend pool at saturation: the worker sends request
    # 9's response and takes request 12 off the accept queue in zero
    # time, so its log holds the END and the next BEGIN at one timestamp.
    LOG = """\
1.000000 www httpd 1000 1000 RECEIVE 10.9.0.1:41000-10.0.0.1:80 300 #rid=9
1.001000 www httpd 1000 1000 SEND 10.0.0.1:5000-10.0.0.2:8009 200 #rid=9
1.002000 app java 2000 2001 RECEIVE 10.0.0.1:5000-10.0.0.2:8009 200 #rid=9
1.003000 app java 2000 2001 SEND 10.0.0.2:8009-10.0.0.1:5000 900 #rid=9
1.004000 www httpd 1000 1000 RECEIVE 10.0.0.2:8009-10.0.0.1:5000 900 #rid=9
2.443250 www httpd 1000 1000 SEND 10.0.0.1:80-10.9.0.1:41000 1200 #rid=9
2.443250 www httpd 1000 1000 RECEIVE 10.9.0.2:42000-10.0.0.1:80 300 #rid=12
2.444000 www httpd 1000 1000 SEND 10.0.0.1:5000-10.0.0.2:8009 200 #rid=12
2.445000 app java 2000 2001 RECEIVE 10.0.0.1:5000-10.0.0.2:8009 200 #rid=12
2.446000 app java 2000 2001 SEND 10.0.0.2:8009-10.0.0.1:5000 900 #rid=12
2.447000 www httpd 1000 1000 RECEIVE 10.0.0.2:8009-10.0.0.1:5000 900 #rid=12
2.448000 www httpd 1000 1000 SEND 10.0.0.1:80-10.9.0.2:42000 1200 #rid=12
"""

    def test_end_and_next_begin_at_one_timestamp_make_two_complete_cags(self):
        lines = self.LOG.splitlines()
        activities = ActivityClassifier(frontends=[self.FRONTEND]).classify_lines(lines)
        end, begin = activities[5], activities[6]
        assert (end.type, begin.type) == (ActivityType.END, ActivityType.BEGIN)
        assert end.timestamp == begin.timestamp and end.context is begin.context
        assert begin.priority < end.priority  # what the old key sorted on

        result = BackendSpec.batch(window=0.010).correlate(activities)
        assert result.ranker_stats.fallback_selections == 0
        assert result.incomplete_cags == []
        assert len(result.cags) == 2
        for cag, rid in zip(result.cags, (9, 12)):
            assert set(cag.column("request_id")) == {rid}
            assert len(cag) == 6
            cag.validate()


class TestStats:
    def test_max_buffered_tracks_window_growth(self):
        trace = SyntheticTrace()
        for i in range(5):
            trace.three_tier_request(request_id=i + 1, start=float(i) * 0.01)
        small = Ranker(packed(trace.by_node()), {}, window=0.0005)
        large = Ranker(packed(trace.by_node()), {}, window=10.0)
        drain(small)
        drain(large)
        assert large.stats.max_buffered >= small.stats.max_buffered


FIELDS = (
    "delivered",
    "noise_discarded",
    "rule1_selections",
    "rule2_selections",
    "head_swaps",
    "window_refills",
    "max_buffered",
)


def counters(stats):
    return tuple(getattr(stats, name) for name in FIELDS)


class TestStatsIdentity:
    """The cursor window takes the decisions the deque window took.

    The tuples were read off the ranker that copied rows into per-node
    deques (commit b7b847f), on the same inputs: a window representation
    may change what a fetch costs, never what it fetches or when.
    """

    STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)
    PINNED = {
        "cache_aside": (3451, 0, 1478, 1973, 0, 997, 46),
        "fanout_aggregator": (2588, 0, 1156, 1432, 0, 443, 38),
        "five_tier_chain": (2888, 0, 1367, 1521, 0, 687, 50),
        "replicated_lb": (2105, 0, 939, 1166, 0, 473, 32),
        "rubis": (941, 0, 423, 518, 0, 226, 25),
    }

    @pytest.mark.parametrize("name", scenario_names())
    def test_library_scenarios(self, name):
        overrides = {"clients": 40} if name == "rubis" else {}
        run = run_scenario(
            ScenarioConfig(scenario=name, stages=self.STAGES, seed=11, **overrides)
        )
        stats = BackendSpec.batch(window=0.010).correlate(run.activities()).ranker_stats
        assert counters(stats) == self.PINNED[name]
        assert stats.fallback_selections == 0

    def test_rubis_golden_run_never_falls_back(self):
        # the run behind tests/golden_store_run.json
        run = run_scenario(
            ScenarioConfig(scenario="rubis", clients=40, stages=self.STAGES, seed=17)
        )
        stats = BackendSpec.batch(window=0.010).correlate(run.activities()).ranker_stats
        assert counters(stats) == (1076, 0, 489, 587, 0, 281, 22)
        assert stats.fallback_selections == 0

    def test_skew_far_beyond_the_window(self):
        # db's clock half a second behind, a 1 ms window: every db
        # RECEIVE surfaces before its SEND was fetched (mechanism 1)
        trace = SyntheticTrace(skews={"db": -0.5, "app": 0.2})
        for index in range(12):
            trace.three_tier_request(request_id=index + 1, start=1.0 + index * 0.013)
        table = packed(trace.by_node())
        engine = keyed_engine(table.keys)
        ranker = Ranker(table, engine.mmap, window=0.001)
        for candidate in iter(ranker.rank, None):
            engine.process(candidate)
            assert_ranker_aligned(ranker)
        assert_ranker_drained(ranker)
        assert counters(ranker.stats) == (168, 0, 72, 96, 0, 25, 8)
        assert ranker.stats.fallback_selections == 0
        assert len(engine.finished_cags) == 12

    def test_head_swaps(self):
        # five rounds of the Fig. 6 disturbance on one connection pair
        rows = {"node1": [], "node2": []}
        for index in range(5):
            a, b = ("10.0.0.1", 100 + index), ("10.0.0.2", 200 + index)
            ts = 1.0 + index * 0.01
            rows["node1"] += [
                act(ActivityType.RECEIVE, ts, "node1", pid=11, src=b, dst=a),
                act(ActivityType.SEND, ts + 0.0001, "node1", pid=12, src=a, dst=b),
            ]
            rows["node2"] += [
                act(ActivityType.RECEIVE, ts, "node2", pid=21, src=a, dst=b),
                act(ActivityType.SEND, ts + 0.0001, "node2", pid=22, src=b, dst=a),
            ]
        mmap = {}
        ranker = Ranker(packed(rows), mmap, window=1.0)
        delivered = []
        for candidate in iter(ranker.rank, None):
            if candidate.type is ActivityType.SEND:
                add_pending(mmap, candidate)  # the engine would do this
            delivered.append(candidate)
            assert_ranker_aligned(ranker)
        assert_ranker_drained(ranker)
        assert len(delivered) == 20
        assert ranker.stats.fallback_selections == 0
        assert counters(ranker.stats) == (20, 0, 10, 10, 5, 1, 20)
