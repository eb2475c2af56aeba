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
import tracemalloc

import pytest

from helpers import write_node_logs
from repro.core.activity import Activity
from repro.core.cag import CAGError
from repro.core.export import cag_to_dict, cag_to_dot
from repro.core.interning import ActivityTable
from repro.pipeline import (
    BackendSpec,
    CagJsonlSink,
    LogSource,
    Pipeline,
    RankedLatencyStage,
    StoreSink,
    SummaryJsonSink,
    result_digest,
)

#: Most bytes one more vertex may add to a finished request at rest.  A
#: row is 49 bytes and its position columns about 13 more, on every
#: supported Python; a vertex kept as an ``Activity`` (slots object plus
#: its boxed timestamp, seq and request id) reads about 240.
MAX_BYTES_PER_VERTEX = 100


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
