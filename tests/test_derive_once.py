"""Each shape is compiled once, each CAG stored once.

The analysis consumers of a finished request -- the pattern classifier,
the ranked latency report, the summary JSON, the trace store, the CAG
export -- all answer from one per-CAG memo, and the structural work
behind it (the canonical sort, the primary-path walk) happens once per
distinct *shape*, on a plan every CAG of that shape shares.  These tests
pin the three things that makes safe: the walks really happen once per
shape and the ingest once per request through a whole pipeline run, the
memo never outlives the structure it was derived from (mutation,
pickling), and a CAG that cannot be derived at all (a cycle) is skipped
and counted instead of aborting the run.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter

import pytest

from helpers import SyntheticTrace, cyclic_cag, in_space, tiny_config
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.export import cag_to_dict, trace_summary
from repro.core.interning import KeySpace
from repro.core.latency import average_breakdown, average_duration, breakdown_for_cag
from repro.core.log_format import format_record
from repro.core.patterns import PatternClassifier, cag_signature
from repro.core.tracer import TraceResult
from repro.pipeline import (
    BackendSpec,
    LogSource,
    MemorySource,
    Pipeline,
    RankedLatencyStage,
    RunSource,
    StoreSink,
    SummaryJsonSink,
    TraceSession,
)
from repro.store import TraceStore, store as store_module


def activity(activity_type, timestamp, host="web", program="httpd", pid=1, tid=1):
    return Activity(
        type=activity_type,
        timestamp=timestamp,
        context=ContextId(host, program, pid, tid),
        message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
    )


def chain(keys=None):
    """BEGIN -> SEND -> RECEIVE(app) -> SEND(app) -> RECEIVE -> END, in
    key space ``keys`` (a new one by default)."""
    keys = KeySpace() if keys is None else keys
    begin, send, receive, reply, back, end = in_space(
        keys,
        activity(ActivityType.BEGIN, 1.0),
        activity(ActivityType.SEND, 1.1),
        activity(ActivityType.RECEIVE, 1.2, host="app", program="java", pid=2, tid=2),
        activity(ActivityType.SEND, 1.3, host="app", program="java", pid=2, tid=2),
        activity(ActivityType.RECEIVE, 1.4),
        activity(ActivityType.END, 1.5),
    )
    cag = CAG(root=begin, keys=keys)
    cag.append(send, begin, CONTEXT_EDGE)
    cag.append(receive, send, MESSAGE_EDGE)
    cag.append(reply, receive, CONTEXT_EDGE)
    cag.append(back, reply, MESSAGE_EDGE)
    cag.append(end, back, CONTEXT_EDGE)
    return cag, [begin, send, receive, reply, back, end]


@pytest.fixture()
def counted(monkeypatch):
    """Call counters around the two graph walks and the store's ingest."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(CAG, "topological_positions")
    count(CAG, "primary_positions")
    count(TraceStore, "ingest_cag")
    return calls


def full_pipeline(source, backend, tmp_path):
    return Pipeline(
        source,
        backend,
        stages=[RankedLatencyStage()],
        sinks=[
            SummaryJsonSink(tmp_path / "summary.json"),
            StoreSink(tmp_path / "store.sqlite", run_id="r", commit_every=16),
        ],
    )


@pytest.fixture(scope="module")
def rubis_source():
    return RunSource(config=tiny_config())


@pytest.fixture(scope="module")
def rubis_logs(rubis_source, tmp_path_factory):
    """The same run as the per-node log files an operator gathers."""
    run = rubis_source.run
    outdir = tmp_path_factory.mktemp("logs")
    by_node = {}
    for record in sorted(run.all_records(), key=lambda record: record.timestamp):
        by_node.setdefault(record.hostname, []).append(record)
    paths = []
    for node, records in sorted(by_node.items()):
        paths.append(outdir / f"{node}.log")
        paths[-1].write_text("\n".join(format_record(r) for r in records) + "\n")
    return LogSource([str(path) for path in paths], run.frontend_spec())


class TestDeriveOnce:
    @pytest.mark.parametrize(
        "backend",
        [BackendSpec.batch(), BackendSpec.streaming(chunk_size=64)],
        ids=["batch", "streaming-live-on_cag"],
    )
    @pytest.mark.parametrize("source_kind", ["simulation", "logs"])
    def test_one_walk_and_one_ingest_per_finished_cag(
        self, backend, source_kind, rubis_source, rubis_logs, tmp_path, counted
    ):
        source = rubis_source if source_kind == "simulation" else rubis_logs
        session = full_pipeline(source, backend, tmp_path).run()
        finished = len(session.cags)
        assert finished > 20
        # the run's one key space holds every plan it compiled, and no other
        keys = session.cags[0].keys
        assert all(cag.keys is keys for cag in session.cags)
        shapes = len(keys.plans)
        assert 0 < shapes < finished / 4
        assert counted == {
            "topological_positions": shapes,
            "primary_positions": shapes,
            "ingest_cag": finished,
        }
        with TraceStore.open(tmp_path / "store.sqlite") as store:
            assert store.run_row("r")["requests"] == finished
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["requests"] == finished and summary["deformed_paths"] == 0
        assert summary["shape_plans"] == {
            "shapes": shapes,
            "plan_hits": finished - shapes,
            "timestamp_decided": 0,
            "table_full": 0,
        }

    def test_correlate_only_callers_pay_for_no_analysis(self, rubis_source, counted):
        result = BackendSpec.batch().correlate(rubis_source.activities())
        assert result.cags and not counted
        assert all(cag._analysis is None for cag in result.cags)

    def test_average_path_is_computed_once_per_pattern(self, rubis_source, counted):
        trace = BackendSpec.batch().trace(rubis_source.activities())
        pattern = trace.patterns()[0]
        first = pattern.average_path()
        walks = counted["primary_positions"]
        second = pattern.average_path()
        assert counted["primary_positions"] == walks
        assert first is not second and first.segments == second.segments
        # Averaged over the current members: a grown pattern re-averages.
        pattern.cags.append(pattern.cags[0])
        assert pattern.average_path().segments == average_breakdown(pattern.cags).segments
        assert pattern.average_path().segments != first.segments

    def test_average_duration_reads_each_duration_once(self, monkeypatch):
        cag, _ = chain()
        calls = Counter()
        original = CAG.duration

        def duration(self):
            calls["duration"] += 1
            return original(self)

        monkeypatch.setattr(CAG, "duration", duration)
        assert average_duration([cag, cag]) == pytest.approx(0.5)
        assert calls["duration"] == 2

    def test_git_describe_forks_once_per_process(self, monkeypatch):
        forks = []

        def fake_run(*args, **kwargs):
            forks.append(args)
            raise OSError("no git here")

        store_module.git_describe.cache_clear()
        monkeypatch.setattr(store_module.subprocess, "run", fake_run)
        try:
            assert store_module.git_describe() == "unknown"
            assert store_module.git_describe() == "unknown"
            assert len(forks) == 1
        finally:
            store_module.git_describe.cache_clear()


class TestMemoSafety:
    def test_signature_is_interned_one_object_per_pattern(self):
        keys = KeySpace()
        first, _ = chain(keys)
        second, _ = chain(keys)
        assert cag_signature(first) is cag_signature(second)
        assert cag_signature(first) is cag_signature(first)

    def test_breakdown_copies_are_independent_of_the_memo(self):
        cag, _ = chain()
        breakdown = breakdown_for_cag(cag)
        breakdown.add("httpd2httpd", 100.0)
        assert breakdown_for_cag(cag).segments["httpd2httpd"] == pytest.approx(0.2)

    def test_append_invalidates(self):
        cag, vertices = chain()
        before_signature = cag_signature(cag)
        before_segments = breakdown_for_cag(cag).as_dict()
        (extra,) = in_space(cag.keys, activity(ActivityType.SEND, 1.6))
        cag.append(extra, vertices[-1], CONTEXT_EDGE)
        after = cag_signature(cag)
        assert len(after[0]) == len(before_signature[0]) + 1
        assert after[0][-1] == ("SEND", "web", "httpd")
        assert breakdown_for_cag(cag).segments["httpd2httpd"] == pytest.approx(
            before_segments["httpd2httpd"] + 0.1
        )

    def test_add_vertex_and_add_edge_invalidate(self):
        cag, vertices = chain()
        before = cag_signature(cag)
        breakdown_for_cag(cag)
        _begin, send, _receive, _reply, back, _end = vertices
        # The frontend's context edge SEND -> RECEIVE the engine adds when
        # the reply comes back: same vertices, one more edge.
        cag.add_edge(send, back, CONTEXT_EDGE)
        after = cag_signature(cag)
        assert after[0] == before[0]
        assert len(after[1]) == len(before[1]) + 1
        (late,) = in_space(cag.keys, activity(ActivityType.SEND, 1.45))
        cag.add_vertex(late)
        assert cag._analysis is None
        assert len(cag_signature(cag)[0]) == len(before[0]) + 1

    def test_splice_in_order_invalidates(self):
        keys = KeySpace()
        begin, send, upstream, late = in_space(
            keys,
            activity(ActivityType.BEGIN, 1.0),
            activity(ActivityType.SEND, 1.3),
            activity(ActivityType.SEND, 1.05, host="app", program="java", pid=2, tid=2),
            activity(ActivityType.RECEIVE, 1.1),
        )
        cag = CAG(root=begin, keys=keys)
        cag.append(send, begin, CONTEXT_EDGE)
        cag.append(upstream, begin, MESSAGE_EDGE)
        cag.append(late, upstream, MESSAGE_EDGE)
        before = cag_signature(cag)
        before_segments = breakdown_for_cag(cag).as_dict()
        cag.splice_in_order(late, send)
        after = cag_signature(cag)
        context_edges = lambda sig: [e for e in sig[1] if e[0] == "context"]  # noqa: E731
        assert len(context_edges(before)) == 1
        assert len(context_edges(after)) == 2
        # What a CAG built spliced from the start derives, not a stale copy.
        assert after == cag_signature(pickle.loads(pickle.dumps(cag)))
        # ``send`` is now reached from ``late`` (0.2 s), not from BEGIN (0.3 s).
        assert before_segments["httpd2httpd"] == pytest.approx(0.3)
        assert breakdown_for_cag(cag).segments["httpd2httpd"] == pytest.approx(0.2)

    def test_pickle_round_trip_carries_no_memo(self):
        cag, _ = chain()
        cag.finish()
        signature = cag_signature(cag)
        segments = breakdown_for_cag(cag).as_dict()
        assert "analysis" not in "".join(cag.__getstate__())
        shipped = pickle.loads(pickle.dumps(cag))
        assert shipped._analysis is None
        # the key space travels with the CAG: re-derived, and interned there
        assert cag_signature(shipped) == signature
        assert cag_signature(shipped) is shipped.keys.signatures[signature]
        assert breakdown_for_cag(shipped).as_dict() == segments

    def test_sharded_results_match_batch_signatures(self, rubis_source):
        batch = BackendSpec.batch().correlate(rubis_source.activities())
        sharded = BackendSpec.sharded().correlate(rubis_source.activities())
        assert Counter(map(cag_signature, sharded.cags)) == Counter(
            map(cag_signature, batch.cags)
        )

    def test_export_reads_the_shared_breakdown(self, counted):
        cag, _ = chain()
        breakdown_for_cag(cag)
        exported = cag_to_dict(cag)
        assert counted["primary_positions"] == 1
        assert exported["segments"] == breakdown_for_cag(cag).as_dict()


class TestCyclicCagIsSkippedAndCounted:
    def test_cycle_is_deformed_and_the_direct_call_still_raises(self):
        cag = cyclic_cag()
        assert cag.is_deformed()
        with pytest.raises(CAGError, match="cycle"):
            cag_signature(cag)
        # Nothing half-derived is cached: the next call raises again.
        with pytest.raises(CAGError, match="cycle"):
            cag_signature(cag)

    def test_an_acyclic_finished_cag_is_not_deformed(self):
        cag, _ = chain()
        cag.finish()
        assert not cag.is_deformed()

    def test_classifier_skips_and_counts(self):
        good, _ = chain()
        classifier = PatternClassifier()
        classifier.add_all([good, cyclic_cag(), good])
        assert classifier.deformed == 1
        assert [pattern.count for pattern in classifier.patterns] == [2]

    def _session_with_a_cycle(self):
        trace = SyntheticTrace()
        for index in range(3):
            trace.three_tier_request(request_id=index + 1, start=index * 1.0)
        source = MemorySource(trace.activities)
        result = BackendSpec.batch(window=0.01).correlate(source.activities())
        assert len(result.cags) == 3
        result.cags.insert(1, cyclic_cag())
        return TraceSession(
            source=source,
            backend=BackendSpec.batch(),
            trace=TraceResult(correlation=result),
        )

    def test_summary_and_report_survive_and_count_it(self):
        session = self._session_with_a_cycle()
        report = RankedLatencyStage().run(session)
        assert sum(row["paths"] for row in report) == 3
        assert session.trace.deformed_paths == 1
        summary = trace_summary(session.trace)
        assert summary["deformed_paths"] == 1
        assert summary["requests"] == 4
        assert sum(pattern["paths"] for pattern in summary["patterns"]) == 3

    @pytest.mark.parametrize("live_hook", [True, False], ids=["on_cag", "sweep"])
    def test_store_sink_skips_it_and_counts_it_as_incomplete(self, tmp_path, live_hook):
        session = self._session_with_a_cycle()
        sink = StoreSink(tmp_path / "s.sqlite", run_id="r")
        if live_hook:
            for cag in session.trace.cags:
                sink.on_cag(cag)
        sink.write(session)
        with TraceStore.open(tmp_path / "s.sqlite") as store:
            row = store.run_row("r")
            assert row["requests"] == 3
            assert row["incomplete"] == len(session.trace.incomplete_cags) + 1
            assert row["finalized"] == 1
