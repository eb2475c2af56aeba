"""A source that streams: ``LogSource.chunks()`` against the materialised feed.

The streaming backend used to be handed ``sorted(source.activities())``;
it now pulls ``source.chunks(chunk_size)``, a time-sliced merge of the
per-node log files that holds about a read block per file.  Everything
downstream is meant to be identical *by construction* -- the chunk stream
is the old sequence, produced incrementally -- so these tests hold the
chunked feed to the materialised one: row for row, counter for counter,
digest for digest, on both rank kernels, and on coarse clocks where ties
between nodes are everywhere.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from repro.cli import main
from repro.core.activity import sort_key
from repro.pipeline import (
    BackendSpec,
    LogSource,
    Pipeline,
    SamplingSpec,
    StoreSink,
    result_digest,
)
from repro.store import TraceStore
from repro.stream import FileTailSource, StreamingCorrelator
from repro.topology.library import ScenarioConfig, run_scenario, scenario_names
from repro.topology.workload import WorkloadStages

from helpers import lines_conserved, write_node_logs

STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)
WHOLE_FILE = 1 << 30
READ_BLOCKS = [37, 1024, 64 * 1024, WHOLE_FILE]
CHUNK_SIZES = [1, 7, 256]
SCENARIOS = sorted(scenario_names())

_runs = {}


def scenario_run(name):
    if name not in _runs:
        overrides = {"clients": 150} if name == "rubis" else {}
        _runs[name] = run_scenario(
            ScenarioConfig(scenario=name, stages=STAGES, seed=11, **overrides)
        )
    return _runs[name]


def log_source(run, paths, chunk_bytes=64 * 1024):
    return LogSource(
        paths,
        run.frontend_spec(),
        ignore_programs=run.topology.ignore_programs,
        chunk_bytes=chunk_bytes,
    )


def identity(activity):
    return (
        activity.timestamp,
        activity.context,
        activity.message,
        activity.type,
        activity.request_id,
    )


@pytest.fixture(scope="module")
def log_sets(tmp_path_factory):
    """(scenario, coarse) -> (run, paths, the materialised feed's identity
    rows in arrival order), written once."""
    sets = {}
    for name in SCENARIOS:
        for coarse in (False, True):
            run = scenario_run(name)
            outdir = tmp_path_factory.mktemp(f"{name}-{'coarse' if coarse else 'fine'}")
            paths = write_node_logs(run, outdir, coarse=coarse)
            reference = sorted(log_source(run, paths).activities(), key=sort_key)
            sets[name, coarse] = (run, paths, [identity(a) for a in reference])
    return sets


# -- (a) the chunk stream is the sorted sequence -----------------------------------


class TestChunksAreTheSortedTrace:
    @given(
        scenario=st.sampled_from(SCENARIOS),
        coarse=st.booleans(),
        chunk_bytes=st.sampled_from(READ_BLOCKS),
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    @settings(
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_concatenated_chunks_equal_the_global_sort(
        self, log_sets, scenario, coarse, chunk_bytes, chunk_size
    ):
        run, paths, reference = log_sets[scenario, coarse]
        source = log_source(run, paths, chunk_bytes=chunk_bytes)
        chunks = list(source.chunks(chunk_size))
        rows = [activity for chunk in chunks for activity in chunk]
        assert [identity(activity) for activity in rows] == reference
        # cut where cutting the sorted whole would cut
        assert [len(chunk) for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= chunk_size
        # ``seq`` is arrival order, whatever order the blocks were read in
        seqs = [activity.seq for activity in rows]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert source.late_lines == 0
        assert source.malformed_lines == source.skipped_lines == 0
        assert source.lines_read == sum(map(len, run.records_by_node.values()))
        assert lines_conserved(source, rows)

    def test_coarse_clocks_really_tie_across_nodes(self, log_sets):
        """The coarse variant is only a test of tie order if distinct
        nodes do share timestamps."""
        for scenario in SCENARIOS:
            _run, _paths, reference = log_sets[scenario, True]
            nodes_at = {}
            for timestamp, context, *_ in reference:
                nodes_at.setdefault(timestamp, set()).add(context.hostname)
            assert any(len(nodes) > 1 for nodes in nodes_at.values()), scenario

    def test_in_memory_sources_chunk_the_same_way(self, log_sets):
        run, _paths, _reference = log_sets["rubis", False]
        source = Pipeline(run).source
        reference = [identity(a) for a in sorted(source.activities(), key=sort_key)]
        chunks = list(source.chunks(100))
        assert [identity(a) for chunk in chunks for a in chunk] == reference
        assert all(len(chunk) == 100 for chunk in chunks[:-1])

    def test_chunk_size_is_validated(self, log_sets):
        run, paths, _reference = log_sets["rubis", False]
        with pytest.raises(ValueError, match="chunk_size"):
            list(log_source(run, paths).chunks(0))


# -- (b) the engine cannot tell the feeds apart ------------------------------------


class TestChunkFedEqualsListFed:
    @pytest.mark.parametrize("mode", ["python", "native"])
    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_stats_and_digest_match(self, log_sets, scenario, coarse, mode, monkeypatch):
        if mode == "native" and kernel.kernel_info("auto").name != "native":
            pytest.skip("no C toolchain: compiled kernel unavailable")
        monkeypatch.setenv(kernel.ENV_VAR, mode)
        run, paths, _reference = log_sets[scenario, coarse]
        # Small read blocks: the files' blocks are classified interleaved,
        # so creation order is nothing like arrival order.
        source = log_source(run, paths, chunk_bytes=1024)
        listed = StreamingCorrelator(horizon=5.0).correlate(source.activities())
        chunked = StreamingCorrelator(horizon=5.0).correlate(
            chunks=source.chunks(256)
        )
        assert chunked.ranker_stats == listed.ranker_stats
        assert chunked.engine_stats == listed.engine_stats
        assert chunked.peak_state_entries == listed.peak_state_entries
        assert result_digest(chunked) == result_digest(listed)
        assert chunked.total_activities == listed.total_activities > 0

    def test_backend_run_streams_and_batch_run_materialises(self, log_sets):
        run, paths, _reference = log_sets["fanout_aggregator", False]
        source = log_source(run, paths, chunk_bytes=4096)
        streamed = BackendSpec.streaming().run(source)
        assert 0 < source.peak_buffered < streamed.correlation.total_activities / 4
        batch = BackendSpec.batch().run(source)
        assert source.peak_buffered == 0  # activities(): nothing chunked
        assert result_digest(streamed.correlation) == result_digest(batch.correlation)
        assert streamed.filtered_records == batch.filtered_records


# -- (c) what the source holds ---------------------------------------------------


class TestBufferingIsBounded:
    def test_peak_buffered_is_blocks_not_the_trace(self, log_sets):
        run, paths, reference = log_sets["rubis", False]
        chunk_bytes = 2048
        shortest = min(
            len(line) + 1 for path in paths for line in path.read_text().splitlines()
        )
        block_lines = chunk_bytes // shortest + 1
        source = log_source(run, paths, chunk_bytes=chunk_bytes)
        delivered = sum(len(chunk) for chunk in source.chunks(16))
        assert delivered == len(reference)
        assert 0 < source.peak_buffered <= len(paths) * 2 * block_lines
        assert source.peak_buffered < len(reference) / 10

    def test_session_summary_carries_the_source_counters(self, log_sets):
        run, paths, reference = log_sets["rubis", False]
        session = Pipeline(
            log_source(run, paths, chunk_bytes=2048), BackendSpec.streaming()
        ).run()
        summary = session.summary()
        assert summary["late_lines"] == 0.0
        assert summary["malformed_lines"] == 0.0
        assert 0 < summary["peak_buffered"] < len(reference)


# -- (d) a node log out of order ---------------------------------------------------


class TestOutOfOrderNodeLog:
    def test_a_row_below_the_released_limit_is_counted_and_delivered(self, tmp_path):
        run = scenario_run("rubis")
        chunk_bytes = 1024
        intact = write_node_logs(run, tmp_path / "intact")
        busiest = max(intact, key=os.path.getsize)
        # Swap the first lines of two distant read blocks, so neither ends
        # a block: the early-placed line waits in the buffer for its turn,
        # the late-placed one arrives below what has long been released.
        blocks = list(FileTailSource(str(busiest), chunk_bytes).blocks(final=True))
        assert len(blocks) > 20 and all(len(block) > 1 for block in blocks)
        early = sum(map(len, blocks[:3]))
        late = sum(map(len, blocks[:-3]))

        def swap(node, lines):
            if f"{node}.log" == busiest.name:
                lines[early], lines[late] = lines[late], lines[early]
            return lines

        paths = write_node_logs(run, tmp_path / "swapped", mutate=swap)
        reference = sorted(log_source(run, intact).activities(), key=sort_key)
        source = log_source(run, paths, chunk_bytes=chunk_bytes)
        rows = [activity for chunk in source.chunks(64) for activity in chunk]
        assert source.late_lines == 1
        assert lines_conserved(source, rows)
        # nothing dropped, nothing invented ...
        assert sorted(map(identity, rows), key=repr) == sorted(
            map(identity, reference), key=repr
        )
        # ... and only the late row is out of place
        stamps = [activity.timestamp for activity in rows]
        inversions = [i for i in range(1, len(stamps)) if stamps[i] < stamps[i - 1]]
        assert len(inversions) == 1
        # the engine takes it (a late row lands at the consumption point)
        result = BackendSpec.streaming(horizon=5.0).run(
            log_source(run, paths, chunk_bytes=chunk_bytes)
        )
        assert result.correlation.total_activities == len(rows)

    def test_disorder_inside_the_buffered_span_is_repaired(self, tmp_path):
        """Adjacent lines swapped: the neighbours are still buffered, so
        the stream is the global sort and nothing is late."""
        run = scenario_run("cache_aside")

        def swap(node, lines):
            # stay clear of a same-timestamp pair, which a stable sort keeps
            for index in range(len(lines) // 2, len(lines) - 1):
                if lines[index].split()[0] != lines[index + 1].split()[0]:
                    lines[index], lines[index + 1] = lines[index + 1], lines[index]
                    break
            return lines

        paths = write_node_logs(run, tmp_path, mutate=swap)
        source = log_source(run, paths)
        reference = sorted(source.activities(), key=_by_time_then_identity)
        rows = [activity for chunk in source.chunks(32) for activity in chunk]
        assert source.late_lines == 0
        assert [a.timestamp for a in rows] == [a.timestamp for a in reference]
        assert lines_conserved(source, rows)


def _by_time_then_identity(activity):
    return (activity.timestamp, repr(identity(activity)))


# -- (e) checkpoint / resume through the pipeline ------------------------------------


class _Crash(Exception):
    pass


class TestResumeFromALogSource:
    def _crashing_run(self, source, store_path, ckpt, every):
        def die_after_checkpoint(_cag):
            if os.path.exists(ckpt):
                raise _Crash

        with pytest.raises(_Crash):
            Pipeline(
                source,
                BackendSpec.streaming(
                    chunk_size=64, checkpoint_path=ckpt, checkpoint_every=every
                ),
                sinks=[StoreSink(store_path, run_id="r", commit_every=1)],
            ).run(on_cag=die_after_checkpoint)

    def test_resumed_run_reaches_the_uninterrupted_store_digest(
        self, log_sets, tmp_path
    ):
        run, paths, reference = log_sets["rubis", False]
        store_path = tmp_path / "s.sqlite"
        ckpt = str(tmp_path / "run.ckpt")
        source = log_source(run, paths, chunk_bytes=4096)
        self._crashing_run(source, store_path, ckpt, len(reference) // 2)

        resumed = Pipeline(
            source,
            BackendSpec.streaming(chunk_size=64, resume_from=ckpt),
            sinks=[StoreSink(store_path, run_id="r")],
        ).run()
        assert resumed.trace.correlation.total_activities == len(reference)
        assert lines_conserved(source, reference)  # the prefix was read, and skipped
        oneshot = Pipeline(
            source,
            BackendSpec.streaming(chunk_size=64),
            sinks=[StoreSink(store_path, run_id="oneshot")],
        ).run()
        assert result_digest(resumed.trace.correlation) == result_digest(
            oneshot.trace.correlation
        )
        with TraceStore.open(store_path) as store:
            assert store.run_row("r")["finalized"] == 1
            assert store.run_digest("r") == store.run_digest("oneshot")

    def test_resuming_against_a_truncated_log_is_refused(self, log_sets, tmp_path):
        run, paths, reference = log_sets["rubis", False]
        ckpt = str(tmp_path / "run.ckpt")
        source = log_source(run, paths)
        self._crashing_run(source, tmp_path / "s.sqlite", ckpt, len(reference) // 2)

        def quarter(_node, lines):
            return lines[: len(lines) // 4]

        short = write_node_logs(run, tmp_path / "short", mutate=quarter)
        backend = BackendSpec.streaming(chunk_size=64, resume_from=ckpt)
        with pytest.raises(ValueError, match="only has"):
            backend.run(log_source(run, short))


# -- (f) the one case that materialises ----------------------------------------------


class TestBudgetSamplingFallsBackToThePrepass:
    def test_streaming_equals_batch_under_a_budget(self, log_sets):
        run, paths, _reference = log_sets["rubis", False]
        sampling = SamplingSpec.budget(per_second=5)
        source = log_source(run, paths, chunk_bytes=4096)
        batch = BackendSpec.batch(sampling=sampling).run(source).correlation
        streamed = BackendSpec.streaming(sampling=sampling).run(source).correlation
        full = BackendSpec.batch().run(source).correlation
        assert 0 < len(batch.cags) < len(full.cags)
        assert batch.engine_stats.sampled_out_roots > 0
        assert result_digest(streamed) == result_digest(batch)
        assert streamed.engine_stats.sampled_out_roots == batch.engine_stats.sampled_out_roots


# -- the block reader under it all --------------------------------------------------


class TestBlockReader:
    def test_poll_is_the_blocks_concatenated(self, log_sets):
        _run, paths, _reference = log_sets["rubis", False]
        path = str(paths[0])
        blocks = list(FileTailSource(path, chunk_bytes=300).blocks())
        assert len(blocks) > 3 and all(blocks)
        assert [line for block in blocks for line in block] == FileTailSource(
            path, chunk_bytes=300
        ).poll()

    def test_a_reader_left_between_blocks_loses_and_repeats_nothing(self, log_sets):
        _run, paths, _reference = log_sets["rubis", False]
        path = str(paths[0])
        expected = FileTailSource(path).drain()
        tail = FileTailSource(path, chunk_bytes=300)
        reader = tail.blocks()
        taken = next(reader) + next(reader)
        reader.close()
        assert 0 < tail.offset < os.path.getsize(path)
        assert taken + tail.drain() == expected
        assert tail.offset == os.path.getsize(path)


# -- the CLI takes a gathered log set ----------------------------------------------


class TestStreamCommandOnALogSet:
    def _argv(self, run, paths):
        frontend = run.frontend_spec()
        argv = ["stream", "--frontend", f"{frontend.ip}:{frontend.port}", "--json"]
        for path in paths:
            argv += ["--input", str(path)]
        return argv

    def test_repeated_input_reads_the_set(self, log_sets, capsys):
        run, paths, reference = log_sets["fanout_aggregator", False]
        assert len(paths) > 1
        assert main(self._argv(run, paths)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == run.completed_requests
        assert payload["incomplete_paths"] == 0
        assert payload["late_lines"] == payload["malformed_lines"] == 0
        assert 0 < payload["peak_buffered"] <= len(reference)
        # read + classify happen inside the drive now
        assert payload["wall_clock_s"] > payload["correlation_time_s"] > 0
        assert all(path.name in payload["source"] for path in paths)

    def test_every_path_is_checked_before_anything_runs(self, log_sets, capsys, tmp_path):
        run, paths, _reference = log_sets["fanout_aggregator", False]
        missing = tmp_path / "gone.log"
        store = tmp_path / "s.sqlite"
        argv = self._argv(run, [paths[0], missing, paths[1]]) + ["--store", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"--input file not found: {missing}" in captured.err
