"""Growth of the one ranker: late arrivals, the bulk path, chunked ingest.

``ActivitySource.extend`` takes one of two branches on the *data's*
order -- a batch sorting behind the unconsumed tail is appended to the
three columns in bulk, a genuinely late row is inserted at its sort
position -- and ``Ranker.ingest`` + ``seal`` must hand the selector the
same streams a ranker built over the complete lists sees.  The nightly
workflow runs the property with ``--hypothesis-profile nightly``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import SyntheticTrace
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
    return (
        source._activities[source._position :],
        source._ts[source._position :],
        source._send_keys[source._position :],
    )


def assert_columns_aligned(source):
    rows, ts_column, send_keys = columns(source)
    assert ts_column == [a.timestamp for a in rows]
    assert ts_column == sorted(ts_column)  # what take_until's bisect needs
    assert send_keys == [a.message_key if a.send_like else None for a in rows]


class TestLateArrival:
    def test_late_row_is_inserted_at_its_sort_position(self):
        source = ActivitySource("n", [row(1.0), row(2.0), row(4.0), row(5.0)])
        late = row(3.0, ActivityType.RECEIVE)
        source.extend([late])
        assert columns(source)[1] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert source._activities[2] is late
        assert_columns_aligned(source)
        assert source.frontier == 5.0

    def test_row_older_than_everything_fetched_lands_at_the_consumption_point(self):
        source = ActivitySource("n", [row(1.0), row(2.0), row(3.0), row(4.0)])
        assert len(source.take_until(2.5)) == 2
        stale = row(0.5)
        source.extend([stale])
        # fetched rows were released, the stale one is next in line
        assert source._position == 0 and len(source) == 3
        assert source.next_timestamp == 0.5
        assert_columns_aligned(source)
        assert source.take_one() is stale
        assert source.frontier == 4.0

    def test_columns_stay_sorted_under_shuffled_arrival_and_interleaved_fetches(self):
        rng = random.Random(7)
        rows = [
            row(rng.uniform(0.0, 10.0), rng.choice(list(ActivityType)[:4]), port=i % 9)
            for i in range(300)
        ]
        source = ActivitySource("n")
        fetched = []
        for start in range(0, len(rows), 7):
            source.extend(rows[start : start + 7])
            assert_columns_aligned(source)
            if start % 3 == 0 and source.next_timestamp is not None:
                fetched += source.take_until(source.next_timestamp + 0.05)
        fetched += source.take_until(float("inf"))
        assert sorted(map(id, fetched)) == sorted(map(id, rows))
        assert source.exhausted and not source._future_send_keys

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
            ranker.ingest(reversed(arrival[start : start + 9]))
        assert sum(ranker._future_send_keys.values()) == sum(
            1 for a in arrival if a.send_like
        )
        ranker.seal()
        while (candidate := ranker.rank()) is not None:
            engine.process(candidate)
        assert ranker.exhausted()
        assert not ranker._future_send_keys
        assert all(not s._future_send_keys for s in ranker._sources.values())
        assert len(engine.finished_cags) == 4


class TestBulkPath:
    def test_in_order_chunk_appends_in_bulk_with_the_same_columns(self, monkeypatch):
        rows = [row(0.1 * i, list(ActivityType)[i % 4], port=i % 5) for i in range(40)]
        one_by_one = ActivitySource("n")
        for activity in rows:
            one_by_one.extend([activity])

        def no_bisect(*_args, **_kwargs):
            raise AssertionError("an in-order chunk must not take the insort path")

        monkeypatch.setattr("repro.core.ranker.bisect_right", no_bisect)
        bulk = ActivitySource("n", rows[:25])
        bulk.extend(rows[25:])
        assert columns(bulk) == columns(one_by_one)
        assert bulk._future_send_keys == one_by_one._future_send_keys
        assert bulk.frontier == one_by_one.frontier
        assert bulk.next_timestamp == one_by_one.next_timestamp


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
        reference = Ranker(by_node, reference_engine.mmap, window=window)

        engine = CorrelationEngine()
        ranker = Ranker(None, engine.mmap, window=window, skew_bound=abs(skew))
        start = turn = 0
        while start < len(order):
            size = sizes[turn % len(sizes)]
            ranker.ingest(chunked[i] for i in order[start : start + size])
            start, turn = start + size, turn + 1
        ranker.seal()

        assert delivered(ranker, engine, chunked_base) == delivered(
            reference, reference_engine, whole_base
        )
        assert ranker.stats == reference.stats
