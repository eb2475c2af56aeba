"""Growth of the one ranker: late arrivals, the bulk path, chunked ingest.

``ActivitySource.extend`` takes one of two branches on the *data's*
order -- a batch sorting behind the unfetched tail is appended to the
three columns in bulk (its sends recorded at the positions they land
on), a genuinely late row is inserted at its sort position, never before
the fence, and the position index rebuilt -- and ``Ranker.ingest`` +
``seal`` must hand the selector the same streams a ranker built over the
complete lists sees.  The position index exists only once blockage
resolution has read it (``ActivitySource._positions``); the tests that
pin its *maintenance* build it first.  The nightly workflow runs the
property with ``--hypothesis-profile nightly``.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    SyntheticTrace,
    assert_ranker_aligned,
    assert_ranker_drained,
    assert_source_aligned,
    message_id,
    packed,
)
from repro.core.activity import Activity, ActivityType, ContextId, MessageId, sort_key
from repro.core.engine import CorrelationEngine
from repro.core.ranker import ActivitySource, Ranker


def row(ts, activity_type=ActivityType.SEND, port=10):
    return Activity(
        type=activity_type,
        timestamp=ts,
        context=ContextId("n", "p", 1, 1),
        message=MessageId("1.1.1.1", port, "2.2.2.2", 20, 100),
    )


def columns(source):
    """The rows from the queue head on (queue, then unfetched): their
    objects, timestamps and send keys."""
    rows = range(source.head, len(source._ts))
    return (
        source.activities(source.head, len(source._ts)),
        list(source._ts[source.head :]),
        [source.send_key(row) for row in rows],
    )


def send_positions(source):
    """The position index relative to the head, so two sources that
    released different numbers of rows compare equal."""
    origin = source._base + source.head
    return {
        key: [position - origin for position in entries]
        for key, entries in source._positions().items()
    }


class TestLateArrival:
    def test_late_row_is_inserted_at_its_sort_position(self):
        source = ActivitySource("n", packed([row(1.0), row(2.0), row(4.0), row(5.0)]))
        source._positions()
        keys = source._table.keys
        late = row(3.0, ActivityType.RECEIVE)
        source.extend(packed([late], keys))
        assert columns(source)[1] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert source.activity(2) == late
        assert_source_aligned(source)
        assert source.frontier == 5.0
        # a late *send* renumbers the sends behind it
        late_send = row(2.5)
        source.extend(packed([late_send], keys))
        assert source.activity(2) == late_send
        assert list(source._send_positions[message_id(keys, late_send)]) == [0, 1, 2, 4, 5]
        assert_source_aligned(source)

    def test_row_older_than_everything_fetched_lands_at_the_consumption_point(self):
        source = ActivitySource("n", packed([row(1.0), row(2.0), row(3.0), row(4.0)]))
        assert source.fetch_until(2.5) == 2
        stale = row(0.5)
        source.extend(packed([stale], source._table.keys))
        # the two fetched rows are the queue (nothing was delivered, so
        # nothing is released); the stale one is next in line behind them
        assert (source.head, source.fence) == (0, 2) and len(source) == 3
        assert source.activity(2) == stale
        assert source.next_timestamp == 0.5
        assert_source_aligned(source)
        assert source.fetch_one() and source.activity(2) == stale
        assert source.frontier == 4.0
        assert_source_aligned(source)

    def test_extend_releases_delivered_rows_and_keeps_absolute_positions(self):
        ranker = Ranker(None, {}, window=0.5, skew_bound=0.0)
        rows = [row(float(i), port=10 + i % 2) for i in range(8)]
        ranker.ingest(packed(rows[:6]))
        ranker.seal()
        (source,) = ranker._slot_sources
        source._positions()
        delivered = [ranker.rank() for _ in range(3)]
        assert delivered == rows[:3]
        assert source._base == 0 and source.head == 3
        ranker.ingest(packed(rows[6:]))
        # delivered rows are gone, buffered and unfetched ones stay, and
        # the recorded positions still count from the first row ever held
        assert (source._base, source.head) == (3, 0)
        assert source.activity(0) == rows[3]
        recorded = sorted(p for e in source._send_positions.values() for p in e)
        assert recorded == [3, 4, 5, 6, 7]
        assert_ranker_aligned(ranker)
        while (candidate := ranker.rank()) is not None:
            delivered.append(candidate)
            assert_ranker_aligned(ranker)
        assert delivered == rows
        assert_ranker_drained(ranker)

    def test_columns_stay_sorted_under_shuffled_arrival_and_interleaved_fetches(self):
        rng = random.Random(7)
        rows = [
            row(rng.uniform(0.0, 10.0), rng.choice(list(ActivityType)[:4]), port=i % 9)
            for i in range(300)
        ]
        source = ActivitySource("n")
        source._positions()
        fetched = []
        for start in range(0, len(rows), 7):
            source.extend(packed(rows[start : start + 7], source._table.keys))
            assert_source_aligned(source)
            if start % 3 == 0 and source.next_timestamp is not None:
                fence = source.fence
                source.fetch_until(source.next_timestamp + 0.05)
                fetched += source.activities(fence, source.fence)
                assert_source_aligned(source)
        fence = source.fence
        source.fetch_until(float("inf"))
        fetched += source.activities(fence, source.fence)
        assert sorted(a.seq for a in fetched) == sorted(a.seq for a in rows)
        # fetch order is queue order
        assert fetched == source.buffered()
        assert source.exhausted
        # no recorded send position at or behind the fence: none awaits fetch
        assert all(
            entries[-1] - source._base < source.fence for entries in source._positions().values()
        )
        assert_source_aligned(source)

    def test_future_send_counters_are_empty_after_a_drain(self):
        script = SyntheticTrace()
        for index in range(4):
            script.three_tier_request(index + 1, 0.001 + index * 0.020)
        arrival = sorted(script.activities, key=sort_key)
        # newest-first within each chunk is still one sorted batch, but
        # chunks handed back to front make every chunk after the first late
        engine = CorrelationEngine()
        ranker = Ranker(None, engine.mmap, window=0.010, skew_bound=0.0)
        for start in reversed(range(0, len(arrival), 9)):
            ranker.ingest(packed(arrival[start : start + 9][::-1]))
            assert_ranker_aligned(ranker)
        assert sum(ranker._undelivered_sends.values()) == sum(
            1 for a in arrival if a.type.is_send_like
        )
        ranker.seal()
        engine.keys = ranker.keys
        while (candidate := ranker.rank()) is not None:
            engine.process(candidate)
            assert_ranker_aligned(ranker)
        assert_ranker_drained(ranker)
        assert len(engine.finished_cags) == 4


class TestIndexOnDemand:
    def trace(self):
        script = SyntheticTrace()
        for index in range(6):
            script.three_tier_request(index + 1, 0.001 + index * 0.020)
        return sorted(script.activities, key=sort_key)

    def drain(self, arrival, build_first):
        engine = CorrelationEngine()
        ranker = Ranker(None, engine.mmap, window=0.010, skew_bound=0.0)
        ranker.ingest(packed(arrival[: len(arrival) // 2]))
        engine.keys = ranker.keys
        if build_first:
            for source in ranker._slot_sources:
                source._positions()
        delivered = []
        ranker.ingest(packed(arrival[len(arrival) // 2 :]))
        ranker.seal()
        while (candidate := ranker.rank()) is not None:
            delivered.append(candidate.seq - arrival[0].seq)
            engine.process(candidate)
            assert_ranker_aligned(ranker)
        assert_ranker_drained(ranker)
        return ranker, delivered

    def test_a_well_formed_trace_never_builds_it(self):
        ranker, delivered = self.drain(self.trace(), build_first=False)
        assert len(delivered) == ranker.stats.delivered > 0
        assert ranker.stats.head_swaps == ranker.stats.fallback_selections == 0
        assert all(source._send_positions is None for source in ranker._slot_sources)

    def test_built_early_it_is_maintained_and_changes_nothing(self):
        absent, plain = self.drain(self.trace(), build_first=False)
        present, indexed = self.drain(self.trace(), build_first=True)
        assert indexed == plain
        assert present.stats == absent.stats
        # maintained through growth and delivery down to empty, not dropped
        assert all(source._send_positions == {} for source in present._slot_sources)

    def test_first_read_builds_it_from_the_head(self):
        rows = [row(float(i), port=10 + i % 2) for i in range(6)]
        ranker = Ranker(None, {}, window=0.5, skew_bound=0.0)
        ranker.ingest(packed(rows))
        ranker.seal()
        assert [ranker.rank() for _ in range(2)] == rows[:2]
        (source,) = ranker._slot_sources
        assert source._send_positions is None
        # row 2 is the queue head; the next send of its key awaits fetch
        keys = ranker.keys
        assert source._positions()[message_id(keys, rows[4])][-1] - source._base >= source.fence
        assert source._send_positions == {
            message_id(keys, rows[2]): deque([2, 4]),
            message_id(keys, rows[3]): deque([3, 5]),
        }
        assert_ranker_aligned(ranker)
        assert [ranker.rank() for _ in range(4)] == rows[2:]
        assert_ranker_drained(ranker)


class TestBulkPath:
    def test_in_order_chunk_appends_in_bulk_with_the_same_columns(self, monkeypatch):
        rows = [row(0.1 * i, list(ActivityType)[i % 4], port=i % 5) for i in range(40)]
        one_by_one = ActivitySource("n")
        one_by_one._positions()
        for activity in rows:
            one_by_one.extend(packed([activity], one_by_one._table.keys))

        def no_bisect(*_args, **_kwargs):
            raise AssertionError("an in-order chunk must not take the insort path")

        monkeypatch.setattr("repro.core.ranker.bisect_right", no_bisect)
        bulk = ActivitySource("n", packed(rows[:25]))
        bulk._positions()
        bulk.extend(packed(rows[25:], bulk._table.keys))
        assert columns(bulk) == columns(one_by_one)
        assert send_positions(bulk) == send_positions(one_by_one)
        assert bulk.frontier == one_by_one.frontier
        assert bulk.next_timestamp == one_by_one.next_timestamp
        assert_source_aligned(bulk)


class TestChunkedIngestProperty:
    @given(
        requests=st.integers(1, 8),
        window=st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
        skew=st.floats(min_value=-0.2, max_value=0.2, allow_nan=False),
        seg=st.one_of(st.none(), st.integers(120, 900)),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        shuffler=st.one_of(st.none(), st.randoms(use_true_random=False)),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ingest_chunks_then_seal_equals_the_complete_streams(
        self, requests, window, skew, seg, sizes, shuffler
    ):
        """Any chunking of any arrival order: same candidates, seq by seq,
        and the same RankerStats as a ranker built over complete streams."""

        def fresh_trace():
            script = SyntheticTrace(
                skews={"app": skew, "db": -skew},
                sender_max=seg,
                receiver_max=max(64, int(seg * 0.6)) if seg else None,
            )
            for index in range(requests):
                script.three_tier_request(index + 1, 0.5 + index * 0.013)
            # ``seq`` is a process-wide counter: compare it relative to
            # the trace's first activity
            return sorted(script.activities, key=sort_key), script.activities[0].seq

        def delivered(ranker, engine, base):
            out = []
            while (candidate := ranker.rank()) is not None:
                out.append(candidate.seq - base)
                engine.process(candidate)
            return out

        whole, whole_base = fresh_trace()
        chunked, chunked_base = fresh_trace()
        order = list(range(len(whole)))
        if shuffler is not None:
            shuffler.shuffle(order)

        by_node = {}
        for index in order:
            by_node.setdefault(whole[index].node_key, []).append(whole[index])
        reference_engine = CorrelationEngine()
        reference = Ranker(packed(by_node), reference_engine.mmap, window=window)
        reference_engine.keys = reference.keys

        engine = CorrelationEngine()
        ranker = Ranker(None, engine.mmap, window=window, skew_bound=abs(skew))
        start = turn = 0
        while start < len(order):
            size = sizes[turn % len(sizes)]
            ranker.ingest(packed([chunked[i] for i in order[start : start + size]]))
            start, turn = start + size, turn + 1
        ranker.seal()
        engine.keys = ranker.keys

        assert delivered(ranker, engine, chunked_base) == delivered(
            reference, reference_engine, whole_base
        )
        assert ranker.stats == reference.stats
        assert_ranker_drained(ranker)
        assert_ranker_drained(reference)
