"""What a finished request costs to keep (the Fig. 11 question, per request).

A run keeps every finished CAG until it ends -- the store, the ranked
report and the accuracy oracle all read them -- so what one holds at rest
is what the tracer's memory grows with.  A finished CAG keeps its vertices
as packed rows plus two objects, the root and the END; these tests run the
batch pipeline an operator runs over gathered logs (ranked report, summary
and store) and check that nothing on that path turns the rows back into
objects, and that a vertex costs rows' worth of bytes.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from array import array

import pytest

from helpers import TINY_STAGES, in_space, write_node_logs
from repro.core import shapes
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.export import cag_to_dict, cag_to_dot
from repro.core.interning import ActivityTable, KeySpace
from repro.core.latency import breakdown_for_cag, segments_json
from repro.core.patterns import cag_signature
from repro.core.shapes import plan_for
from repro.pipeline import (
    BackendSpec,
    CagJsonlSink,
    LogSource,
    Pipeline,
    RankedLatencyStage,
    RunSource,
    StoreSink,
    SummaryJsonSink,
    result_digest,
)
from repro.topology import ScenarioConfig

#: Most bytes one more vertex may add to a finished request at rest.  A
#: row is 49 bytes and its position columns, narrowed at finish, about 3
#: more (53 in all on CPython 3.11; 62 with ``'i'`` columns); a vertex kept as an ``Activity`` (slots object plus
#: its boxed timestamp, seq and request id) reads about 240.
MAX_BYTES_PER_VERTEX = 100

#: Most bytes a finished request of the TINY ``fanout_aggregator`` run (18
#: vertices on average) keeps in its analysis memo and its three position
#: columns once its signature and segments are derived.  Per-label sums
#: in an ``array('d')`` beside the shape's labels, and exact-size columns
#: at the narrowest typecode, read 554 on CPython 3.11; a ``label ->
#: float`` dict and growable ``'i'`` columns read 1 379.
MAX_MEMO_AND_COLUMN_BYTES = 700


def _live_activities() -> int:
    """``Activity`` instances alive right now (gc scan, as the
    ``interning`` figure counts them)."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Activity))


def _freed_bytes(cags) -> int:
    """tracemalloc bytes released by dropping ``cags`` (the caller's list
    is emptied; whatever else references the CAGs must be gone)."""
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    cags.clear()
    gc.collect()
    after, _ = tracemalloc.get_traced_memory()
    return before - after


def test_the_batch_pipeline_keeps_rows_not_vertex_objects(tiny_run, tmp_path):
    paths = write_node_logs(tiny_run, tmp_path / "logs")
    source = LogSource([str(path) for path in paths], tiny_run.frontend_spec())
    gc.collect()
    live_before = _live_activities()
    tracemalloc.start()
    try:
        session = Pipeline(
            source,
            BackendSpec.batch(),
            stages=[RankedLatencyStage()],
            sinks=[
                SummaryJsonSink(tmp_path / "summary.json"),
                StoreSink(tmp_path / "store.sqlite", run_id="r"),
            ],
        ).run()
        finished = session.cags
        assert len(finished) > 20 and session.analyses["ranked_latency"]
        incomplete = sum(len(cag) for cag in session.trace.incomplete_cags)

        # Neither the store, the report nor the summary built a vertex:
        # each finished request holds its root and its END, no more.
        gc.collect()
        live = _live_activities() - live_before
        assert live <= 2 * len(finished) + incomplete, (live, len(finished))

        # What one more vertex costs a finished request: the bytes freed
        # with the longest requests against those freed with the shortest,
        # per vertex of difference.  The key space and the analysis
        # results stay referenced, so only what the CAGs alone hold is
        # measured, and the per-request part (CAG object, root, END)
        # cancels out.
        keys = finished[0].keys
        memos = [cag.analysis for cag in finished]
        shortest = min(map(len, finished))
        longest = max(map(len, finished))
        assert longest - shortest >= 10
        short = [cag for cag in finished if len(cag) == shortest]
        long = [cag for cag in finished if len(cag) == longest]
        counts = len(short), len(long)
        del session, finished
        per_short = _freed_bytes(short) / counts[0]
        per_long = _freed_bytes(long) / counts[1]
    finally:
        tracemalloc.stop()
    per_vertex = (per_long - per_short) / (longest - shortest)
    assert 0 < per_vertex <= MAX_BYTES_PER_VERTEX, (per_vertex, per_short, per_long)
    assert keys is not None and len(memos) > 20


def test_digesting_a_result_builds_no_vertex(tiny_run):
    """``result_digest`` (and with it ``verify_equivalence`` and the fuzz
    harness) fingerprints every vertex from the CAGs' columns and key
    space: a run that digests its own result still holds each finished
    request as its rows, its root and its END."""
    table = ActivityTable.from_activities(tiny_run.activities())
    gc.collect()
    live_before = _live_activities()
    result = BackendSpec.batch().correlate(table)
    digest = result_digest(result)
    assert digest == result_digest(result) and len(result.cags) > 20
    incomplete = sum(len(cag) for cag in result.incomplete_cags)
    gc.collect()
    live = _live_activities() - live_before
    assert live <= 2 * len(result.cags) + incomplete, (live, len(result.cags))


def test_exporting_builds_no_vertex(tiny_run, tmp_path):
    """The exporters read every field off the columns, the key space and
    ``edge_positions()``: a run that exports each finished request as
    JSON and as DOT, and writes them all through the JSONL sink, still
    holds each as its rows, its root and its END."""
    table = ActivityTable.from_activities(tiny_run.activities())
    gc.collect()
    live_before = _live_activities()
    session = Pipeline(
        table, BackendSpec.batch(), sinks=[CagJsonlSink(tmp_path / "cags.jsonl")]
    ).run()
    finished = session.cags
    assert len(finished) > 20
    for cag in finished:
        edges = cag_to_dict(cag)["edges"]
        assert edges and cag_to_dot(cag).count("->") == len(edges) >= len(cag) - 1
    lines = (tmp_path / "cags.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == len(finished)
    incomplete = sum(len(cag) for cag in session.trace.incomplete_cags)
    gc.collect()
    live = _live_activities() - live_before
    assert live <= 2 * len(finished) + incomplete, (live, len(finished))


def test_a_finished_cag_refuses_its_vertices_and_membership(tiny_run):
    """A packed CAG keeps no vertex list to hand out or search: ``vertices``
    and ``in`` are the open CAG's working set only."""
    result = BackendSpec.batch().correlate(tiny_run.activities())
    cag = result.cags[0]
    assert cag.finished
    with pytest.raises(CAGError):
        cag.vertices
    with pytest.raises(CAGError):
        cag.root in cag
    for open_cag in result.incomplete_cags:
        assert open_cag.root in open_cag and open_cag.vertices[0] is open_cag.root


@pytest.fixture(scope="module")
def fanout_table():
    config = ScenarioConfig("fanout_aggregator", stages=TINY_STAGES, seed=11)
    return RunSource(config=config).activities()


def _derive(cags) -> None:
    """What the ranked report and the store ask of every request."""
    for cag in cags:
        cag_signature(cag)
        breakdown_for_cag(cag)


def test_a_finished_cags_memo_holds_no_dict(fanout_table):
    """The segment labels live once on the shape plan; a finished CAG's
    memo keeps its per-label sums as an ``array('d')``."""
    cags = BackendSpec.batch().correlate(fanout_table).cags
    assert len(cags) > 20
    _derive(cags)
    for cag in cags:
        memo = cag.analysis
        held = [getattr(memo, slot) for slot in type(memo).__slots__]
        assert not any(isinstance(value, dict) for value in held)
        assert isinstance(memo.segments, array) and memo.segments.typecode == "d"
        assert memo.plan is not None
        assert len(memo.segments) == len(memo.plan.labels)


def test_memo_and_position_columns_stay_within_their_bytes(fanout_table):
    """tracemalloc bytes a finished request keeps in its memo and position
    columns: what dropping them from every CAG of the run frees."""
    tracemalloc.start()
    try:
        cags = BackendSpec.batch().correlate(fanout_table).cags
        _derive(cags)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for cag in cags:
            cag._analysis = None
            cag._context_parent = cag._message_parent = cag._edge_log = None
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_cag = (before - after) / len(cags)
    assert 0 < per_cag <= MAX_MEMO_AND_COLUMN_BYTES, per_cag


def _vertex(activity_type, timestamp, host="web", program="httpd", keys=None):
    (built,) = in_space(
        keys,
        Activity(
            type=activity_type,
            timestamp=timestamp,
            context=ContextId(host, program, 1, 1),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        ),
    )
    return built


def _chain(keys: KeySpace) -> CAG:
    """BEGIN -> SEND -> RECEIVE -> SEND -> RECEIVE -> END over two
    components, built by hand in ``keys``."""
    begin = _vertex(ActivityType.BEGIN, 1.0, keys=keys)
    send = _vertex(ActivityType.SEND, 1.1, keys=keys)
    receive = _vertex(ActivityType.RECEIVE, 1.2, "app", "java", keys)
    reply = _vertex(ActivityType.SEND, 1.3, "app", "java", keys)
    back = _vertex(ActivityType.RECEIVE, 1.4, keys=keys)
    end = _vertex(ActivityType.END, 1.5, keys=keys)
    cag = CAG(begin, keys)
    cag.append(send, begin, CONTEXT_EDGE)
    cag.append(receive, send, MESSAGE_EDGE)
    cag.append(reply, receive, CONTEXT_EDGE)
    cag.append(back, reply, MESSAGE_EDGE)
    cag.add_edge(send, back, CONTEXT_EDGE)
    cag.append(end, back, CONTEXT_EDGE)
    return cag


def test_an_open_cag_and_its_finished_self_share_a_plan():
    """A finished CAG holds its position columns narrower than an open
    one does; the shape key reads them at one width, so both -- and a
    finished CAG resumed with ``'i'`` columns, as an older checkpoint
    holds them -- get the same plan."""
    keys = KeySpace()
    open_cag, finished = _chain(keys), _chain(keys)
    finished.finish()
    assert {column.typecode for column in open_cag.parent_columns} == {"i"}
    assert {column.typecode for column in finished.parent_columns} == {"b"}
    assert finished.edge_positions() == open_cag.edge_positions()
    plan = plan_for(open_cag)
    assert plan is not None and plan_for(finished) is plan

    state = finished.__getstate__()
    for name in ("context_parent", "message_parent", "edge_log"):
        state[name] = array("i", state[name])
    resumed = CAG.__new__(CAG)
    resumed.__setstate__(state)
    assert {column.typecode for column in resumed.parent_columns} == {"b"}
    assert resumed.edge_positions() == finished.edge_positions()
    assert plan_for(resumed) is plan and len(keys.plans) == 1


def test_a_cag_without_a_plan_keeps_no_segments(monkeypatch):
    """When the shape table is full a CAG's segments are derived on each
    ask and kept nowhere, and read the same."""
    keys = KeySpace()
    planned, unplanned = _chain(keys), _chain(KeySpace())
    planned.finish()
    unplanned.finish()
    assert plan_for(planned) is not None
    monkeypatch.setattr(shapes, "MAX_SHAPES", 0)
    assert plan_for(unplanned) is None
    assert breakdown_for_cag(unplanned).as_dict() == breakdown_for_cag(planned).as_dict()
    assert segments_json(unplanned) == json.dumps(
        breakdown_for_cag(planned).as_dict(), sort_keys=True
    )
    assert unplanned.analysis.segments is None and unplanned.analysis.plan is None
