"""Tests for the streaming correlation subsystem (repro.stream).

The load-bearing property is *equivalence*: with eviction disabled, the
incremental path and the sharded path must produce exactly the same
finished CAGs -- same edge multisets, same ranked latency report -- as
the batch correlator, on the tiny RUBiS workload.  The rest covers the
bounded-memory claim (watermark eviction), the chunked readers and the
component partitioner in isolation.
"""

from __future__ import annotations

import pytest

from helpers import SyntheticTrace, add_pending, in_space, keyed_engine
from repro.core.activity import ActivityType, sort_key
from repro.core.interning import KeySpace
from repro.core.latency import average_breakdown
from repro.core.log_format import LineAssembler, format_record
from repro.pipeline import (  # first-class equivalence API
    BackendSpec,
    canonical_cags,
    ranked_latency_report,
)
from repro.stream import (
    ActivityStream,
    FileTailSource,
    IncrementalEngine,
    IteratorSource,
    arrival_chunks,
    iter_chunks,
    partition_components,
)


# canonical_cags / ranked_latency_report used to be local helpers here;
# they are now the first-class equivalence API in repro.pipeline.


def synthetic_workload(requests=12, skew=0.003, queries=2, noise=2):
    """A valid multi-request trace: contexts rotate mod 3, step chosen so
    requests sharing a worker never overlap in time."""
    trace = SyntheticTrace(skews={"app": skew, "db": -skew})
    for index in range(requests):
        trace.three_tier_request(
            request_id=index + 1,
            start=0.5 + index * 0.004,
            web_pid=100 + index % 3,
            app_tid=200 + index % 3,
            db_tid=300 + index % 3,
            db_queries=queries,
            step=0.0008,
        )
    for index in range(noise):
        trace.noise_receive(0.51 + index * 0.007)
    return trace


# ---------------------------------------------------------------------------
# equivalence: streaming == batch == sharded
# ---------------------------------------------------------------------------


class TestStreamingEquivalence:
    def test_synthetic_trace_identical_cags_across_chunk_sizes(self):
        trace = synthetic_workload()
        batch = BackendSpec.batch(window=0.010).correlate(trace.activities)
        expected = canonical_cags(batch.cags)
        for chunk_size in (1, 7, 64, 10_000):
            stream = BackendSpec.streaming(
                window=0.010, skew_bound=0.004, chunk_size=chunk_size
            ).correlate(trace.activities)
            assert canonical_cags(stream.cags) == expected, chunk_size

    def test_noise_counters_match_batch(self):
        trace = synthetic_workload(noise=3)
        batch = BackendSpec.batch(window=0.010).correlate(trace.activities)
        stream = BackendSpec.streaming(window=0.010, skew_bound=0.004).correlate(trace.activities)
        assert stream.ranker_stats.noise_discarded == batch.ranker_stats.noise_discarded
        assert stream.engine_stats.finished_cags == batch.engine_stats.finished_cags

    def test_tiny_rubis_identical_cags_and_ranked_report(self, tiny_run):
        """The acceptance bar: on the tiny RUBiS workload the streaming
        engine yields the same set of finished CAGs (same edge multisets)
        and the same ranked latency report as the batch path."""
        batch = BackendSpec.batch(window=0.010).correlate(tiny_run.activities())
        stream = BackendSpec.streaming(window=0.010, skew_bound=0.002).correlate(
            tiny_run.activities()
        )
        assert len(stream.cags) == len(batch.cags)
        assert canonical_cags(stream.cags) == canonical_cags(batch.cags)
        assert ranked_latency_report(stream.cags) == ranked_latency_report(batch.cags)
        assert len(stream.incomplete_cags) == len(batch.incomplete_cags)

    def test_tiny_rubis_sharded_matches_batch(self, tiny_run):
        batch = BackendSpec.batch(window=0.010).correlate(tiny_run.activities())
        sharded = BackendSpec.sharded(window=0.010).correlate(tiny_run.activities())
        assert canonical_cags(sharded.cags) == canonical_cags(batch.cags)
        assert ranked_latency_report(sharded.cags) == ranked_latency_report(batch.cags)

    def test_streaming_accuracy_is_exact_on_tiny_rubis(self, tiny_run):
        from repro.core.accuracy import path_accuracy

        stream = BackendSpec.streaming(window=0.010, skew_bound=0.002).correlate(
            tiny_run.activities()
        )
        report = path_accuracy(stream.cags, tiny_run.ground_truth)
        assert report.accuracy == 1.0
        assert report.false_positives == 0

    def test_cags_are_emitted_before_the_stream_ends(self):
        trace = synthetic_workload(requests=10)
        engine = IncrementalEngine(window=0.010, skew_bound=0.004)
        early = 0
        for chunk in arrival_chunks(trace.activities, 40):
            early += len(engine.ingest(chunk))
        tail = len(engine.flush())
        assert early > 0, "no CAG was emitted before flush()"
        assert early + tail == 10


# ---------------------------------------------------------------------------
# bounded memory: watermark eviction
# ---------------------------------------------------------------------------


class TestWatermarkEviction:
    def test_context_map_eviction(self, trace_builder):
        trace_builder.three_tier_request(request_id=1, start=0.1)
        keys = KeySpace()
        engine = keyed_engine(keys)
        for activity in in_space(keys, *trace_builder.activities):
            engine.cmap[activity.context_key] = activity
            engine.cmap_recency[activity.context_key] = activity.timestamp
        before = len(engine.cmap)
        assert engine.evict_stale(0.05) == 0
        evicted = engine.evict_stale(10.0)
        assert evicted == before == engine.stats.evicted_cmap_entries
        assert engine.cmap == {} and engine.cmap_recency == {}

    def test_message_map_eviction_drops_exactly_the_stale_sends(self, trace_builder):
        trace_builder.three_tier_request(request_id=1, start=0.1)
        keys = KeySpace()
        engine = keyed_engine(keys)
        sends = [
            activity
            for activity in in_space(keys, *trace_builder.activities)
            if activity.type is ActivityType.SEND
        ]
        for send in sends:
            add_pending(engine.mmap, send)
        old = [send for send in sends if send.timestamp < 0.105]
        assert 0 < len(old) < len(sends)
        evicted = engine.evict_stale(0.105)
        assert evicted == len(old) == engine.stats.evicted_mmap_entries
        kept = [send for queue in engine.mmap.values() for send in queue]
        assert sorted(map(id, kept)) == sorted(id(a) for a in sends if a not in old)

    def test_engine_evicts_abandoned_open_cags(self, trace_builder):
        # A BEGIN whose request never progresses: stays open forever in
        # batch mode, evicted (and counted) once the watermark passes it.
        trace_builder.three_tier_request(request_id=1, start=5.0)
        keys = KeySpace()
        (abandoned,) = in_space(keys, trace_builder.activities[0])  # the BEGIN
        engine = keyed_engine(keys)
        engine.process(abandoned)
        assert len(engine.open_cags) == 1
        engine.evict_stale(before=abandoned.timestamp + 1.0)
        assert engine.open_cags == []
        assert len(engine.evicted_cags) == 1
        assert engine.stats.evicted_open_cags == 1
        assert engine.stats.evicted_cmap_entries >= 1

    def test_pending_state_is_bounded_on_a_loaded_run(self, loaded_run):
        """Acceptance bar: during a 120-client run the incremental
        engine's live state stays bounded when a horizon is configured --
        it never exceeds the number of activities a horizon-sized window
        of trace time can contain, and stays well below the trace size."""
        ordered = sorted(loaded_run.activities(), key=sort_key)
        horizon = 1.0
        engine = IncrementalEngine(window=0.010, horizon=horizon, skew_bound=0.002)
        # Upper bound on live entries: every activity inside one horizon
        # of trace time could in principle be referenced by ranker buffer,
        # cmap, mmap, owner map and open-CAG bookkeeping at once.
        densest = 0
        left = 0
        for right, activity in enumerate(ordered):
            while activity.timestamp - ordered[left].timestamp > horizon:
                left += 1
            densest = max(densest, right - left + 1)
        cap = 5 * densest
        peak = 0
        finished = 0
        for chunk in arrival_chunks(ordered, 128):
            finished += len(engine.ingest(chunk))
            peak = max(peak, engine.pending_state_size())
            assert engine.pending_state_size() <= cap
        finished += len(engine.flush())
        result = engine.result()
        assert peak <= cap
        assert peak < len(ordered)  # strictly smaller than "keep everything"
        stats = result.engine_stats
        assert stats.evicted_cmap_entries > 0  # eviction actually engaged
        # and the horizon is generous enough that nothing real was lost:
        batch = BackendSpec.batch(window=0.010).correlate(loaded_run.activities())
        assert finished == len(batch.cags)

    def test_multipart_begin_straddling_horizon_is_not_evicted(self):
        """Merge-recency regression: a request whose body arrives in many
        kernel parts spanning more than the horizon is still *live* -- each
        merged part must refresh the context/CAG recency so watermark
        eviction does not drop it before the request's real work starts."""
        from repro.core.activity import Activity, ActivityType, ContextId, MessageId

        web = ContextId("web", "httpd", 100, 100)
        app = ContextId("app", "java", 250, 250)
        client_key = ("10.9.0.1", 51000, "10.1.0.1", 80)
        conn = ("10.1.0.1", 41000, "10.1.0.2", 8080)

        def build(activity_type, ts, ctx, key, size):
            src_ip, src_port, dst_ip, dst_port = key
            return Activity(
                type=activity_type,
                timestamp=ts,
                context=ctx,
                message=MessageId(src_ip, src_port, dst_ip, dst_port, size),
                request_id=1,
            )

        horizon = 1.0
        activities = [
            # request body drips in over 1.35 s -- longer than the horizon
            build(ActivityType.BEGIN, 0.00, web, client_key, 100),
            build(ActivityType.BEGIN, 0.45, web, client_key, 100),
            build(ActivityType.BEGIN, 0.90, web, client_key, 100),
            build(ActivityType.BEGIN, 1.35, web, client_key, 100),
            # then the request actually executes
            build(ActivityType.SEND, 1.50, web, conn, 600),
            build(ActivityType.RECEIVE, 1.55, app, conn, 600),
            build(ActivityType.SEND, 1.60, app, ("10.1.0.2", 8080, "10.1.0.1", 41000), 2000),
            build(ActivityType.RECEIVE, 1.65, web, ("10.1.0.2", 8080, "10.1.0.1", 41000), 2000),
            build(ActivityType.END, 1.70, web, ("10.1.0.1", 80, "10.9.0.1", 51000), 2000),
            # unrelated tail traffic keeps the watermark moving past the END
            build(ActivityType.BEGIN, 3.00, ContextId("web", "httpd", 101, 101),
                  ("10.9.0.2", 52000, "10.1.0.1", 80), 50),
        ]
        engine = IncrementalEngine(window=0.010, horizon=horizon, skew_bound=0.001)
        finished = []
        for chunk in arrival_chunks(activities, 1):
            finished.extend(engine.ingest(chunk))
        finished.extend(engine.flush())

        assert len(finished) == 1  # the multi-part request completed
        cag = finished[0]
        assert cag.request_ids() == {1}
        assert cag.root.size == 400  # all four body parts merged
        assert engine.engine.stats.evicted_open_cags == 0

    def test_short_horizon_trades_accuracy_for_memory(self):
        # Two requests 10 s apart with an idle gap; a tiny horizon evicts
        # the idle context state but still completes each request.
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=1.0)
        trace.three_tier_request(request_id=2, start=11.0)
        engine = IncrementalEngine(window=0.010, horizon=0.5, skew_bound=0.001)
        finished = []
        for chunk in arrival_chunks(trace.activities, 5):
            finished.extend(engine.ingest(chunk))
        finished.extend(engine.flush())
        assert len(finished) == 2
        assert engine.engine.stats.evicted_cmap_entries > 0


# ---------------------------------------------------------------------------
# chunked readers
# ---------------------------------------------------------------------------


class TestReaders:
    def test_iter_chunks_covers_everything(self):
        chunks = list(iter_chunks(range(10), 3))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert list(iter_chunks([], 3)) == []
        with pytest.raises(ValueError):
            list(iter_chunks(range(3), 0))

    def test_line_assembler_reassembles_split_lines(self):
        assembler = LineAssembler()
        assert assembler.feed("alpha bet") == []
        assert assembler.pending == "alpha bet"
        assert assembler.feed("a\ngamma\ndel") == ["alpha beta", "gamma"]
        assert assembler.flush() == ["del"]
        assert assembler.flush() == []

    def test_file_tail_source_follows_appends(self, tmp_path, trace_builder):
        trace_builder.three_tier_request(request_id=1, start=0.2)
        # Render via RawRecord formatting to get genuine TCP_TRACE lines.
        lines = [
            f"{a.timestamp:.6f} {a.context.hostname} {a.context.program} "
            f"{a.context.pid} {a.context.tid} "
            f"{'SEND' if a.type.is_send_like else 'RECEIVE'} "
            f"{a.message.src_ip}:{a.message.src_port}-"
            f"{a.message.dst_ip}:{a.message.dst_port} {a.message.size}"
            for a in trace_builder.activities
        ]
        path = tmp_path / "trace.log"
        tail = FileTailSource(str(path), chunk_bytes=37)
        assert tail.poll() == []  # file does not exist yet
        path.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
        assert tail.poll() == lines[:4]
        # append the rest, without a trailing newline on the last line
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines[4:]))
        assert tail.poll() == lines[4:-1]
        assert tail.drain() == [lines[-1]]

    def test_iterator_source_classifies_in_chunks(self, tiny_run):
        records = sorted(tiny_run.all_records(), key=lambda r: r.timestamp)
        lines = [format_record(record) for record in records]
        lines.insert(5, "this is not a record")
        stream = ActivityStream(
            frontends=[tiny_run.frontend_spec()],
            ignore_programs={"sshd", "rlogind"},
        )
        total = 0
        for batch in IteratorSource(iter(lines), stream, chunk_size=100):
            assert len(batch) <= 100
            total += len(batch)
        assert total == tiny_run.total_activities
        assert stream.malformed_lines == 1

    def test_stream_classification_preserves_begin_end_types(self, tiny_run):
        stream = ActivityStream(frontends=[tiny_run.frontend_spec()])
        lines = [format_record(record) for record in tiny_run.all_records()]
        activities = stream.classify_lines(lines)
        types = {activity.type for activity in activities}
        assert ActivityType.BEGIN in types
        assert ActivityType.END in types


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


class TestSharding:
    def test_partition_is_causally_closed(self):
        trace = synthetic_workload(requests=9, noise=0)
        shards = partition_components(trace.activities)
        assert len(shards) > 1
        # No context or connection key may span two shards.
        seen_ctx = {}
        seen_conn = {}
        for index, shard in enumerate(shards):
            for activity in shard:
                assert seen_ctx.setdefault(activity.context_key, index) == index
                key = activity.message.undirected_key()
                assert seen_conn.setdefault(key, index) == index
        assert sum(len(shard) for shard in shards) == len(trace.activities)

    def test_sharded_correlator_matches_batch_on_synthetic_trace(self):
        trace = synthetic_workload()
        batch = BackendSpec.batch(window=0.010).correlate(trace.activities)
        sharded = BackendSpec.sharded(window=0.010).correlate(trace.activities)
        assert canonical_cags(sharded.cags) == canonical_cags(batch.cags)
        assert sharded.engine_stats.finished_cags == batch.engine_stats.finished_cags

    def test_merged_report_is_deterministic(self):
        trace = synthetic_workload(requests=6, noise=0)
        first = BackendSpec.sharded(window=0.010).correlate(trace.activities)
        second = BackendSpec.sharded(window=0.010).correlate(trace.activities)
        assert [cag.begin_timestamp for cag in first.cags] == [
            cag.begin_timestamp for cag in second.cags
        ]
        assert (
            average_breakdown(first.cags).percentages()
            == average_breakdown(second.cags).percentages()
        )


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            IncrementalEngine(window=0.0)
        with pytest.raises(ValueError):
            IncrementalEngine(horizon=-1.0)
        with pytest.raises(ValueError):
            BackendSpec.streaming(chunk_size=0)
        with pytest.raises(ValueError):
            BackendSpec.sharded(window=-0.1)
        with pytest.raises(ValueError):
            FileTailSource("/tmp/x.log", chunk_bytes=0)

    def test_ingest_after_flush_is_an_error(self):
        engine = IncrementalEngine()
        engine.flush()
        with pytest.raises(RuntimeError):
            engine.ingest([])
