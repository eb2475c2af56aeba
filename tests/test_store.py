"""Tests for the persistent trace store (repro.store).

The load-bearing checks mirror the acceptance criteria of the store
layer: every library scenario ingests into one store and round-trips its
counts; incremental (streaming, chunked) ingest is digest-identical to
one-shot batch ingest; store-side percentiles equal the ones computed
in memory from the same CAGs; a run diffed against itself is clean; and
schema-version mismatches are refused instead of misread.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess

import pytest

import repro.store.store as store_module
from helpers import cyclic_cag
from repro.core.patterns import PatternClassifier, cag_signature
from repro.core.tracer import TraceResult
from repro.pipeline import BackendSpec, Pipeline, RunSource, StoreSink, TraceSession
from repro.store import (
    SCHEMA_VERSION,
    TraceStore,
    cag_root_key,
    diff_summaries,
    latency_over_windows,
    load_run_summary,
    mix_drift,
    pattern_mix,
    percentile,
    run_summary,
    signature_hash,
    signature_label,
    summarize_durations,
)
from repro.topology.library import ScenarioConfig, scenario_names
from repro.topology.workload import WorkloadStages

STORE_STAGES = WorkloadStages(up_ramp=0.5, runtime=3.0, down_ramp=0.5)
STORE_SEED = 11


def store_config(name: str) -> ScenarioConfig:
    overrides = {"clients": 30} if name == "rubis" else {}
    return ScenarioConfig(
        scenario=name, stages=STORE_STAGES, seed=STORE_SEED, **overrides
    )


@pytest.fixture(scope="session")
def store_sources():
    """One lazily-executed, memoised source per library scenario."""
    return {name: RunSource(config=store_config(name)) for name in scenario_names()}


@pytest.fixture(scope="session")
def library_store(store_sources, tmp_path_factory):
    """All five library scenarios ingested into ONE store (batch path)."""
    path = tmp_path_factory.mktemp("store") / "library.sqlite"
    traces = {}
    for name, source in store_sources.items():
        session = Pipeline(source=source, backend=BackendSpec.batch()).run()
        traces[name] = session.trace
        StoreSink(path, run_id=f"run-{name}", scenario=name).write(session)
    return path, traces


class TestIngestRoundTrip:
    def test_all_library_scenarios_land_in_one_store(self, library_store):
        path, traces = library_store
        with TraceStore.open(path) as store:
            assert store.run_ids() == [f"run-{n}" for n in scenario_names()]
            for name in scenario_names():
                row = store.run_row(f"run-{name}")
                assert row["finalized"] == 1
                assert row["scenario"] == name
                assert row["requests"] == len(traces[name].cags)
                assert row["backend"].startswith("batch")
                assert row["kernel"] in ("python", "native")

    def test_pattern_mix_matches_the_in_memory_classifier(self, library_store):
        path, traces = library_store
        with TraceStore.open(path) as store:
            for name in scenario_names():
                classifier = PatternClassifier()
                classifier.add_all(traces[name].cags)
                expected = {
                    signature_hash(p.signature): p.count for p in classifier.patterns
                }
                mix = {
                    row["pattern"]: row["count"]
                    for row in pattern_mix(store, f"run-{name}")
                }
                assert mix == expected

    def test_request_rows_carry_breakdown_segments(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            rows = store.request_rows(run_id="run-rubis")
            assert rows
            for row in rows[:5]:
                segments = json.loads(row["segments"])
                assert segments and all(v >= 0 for v in segments.values())
                assert row["duration_s"] == pytest.approx(
                    row["end_ts"] - row["begin_ts"]
                )

    def test_unfinished_cags_are_not_stored(self, tmp_path, store_sources):
        path = tmp_path / "s.sqlite"
        trace = BackendSpec.batch().trace(
            store_sources["cache_aside"].activities()
        )
        with TraceStore(path) as store:
            key = store.begin_run("r")
            inserted = store.ingest_cags(key, trace.incomplete_cags)
            assert inserted == 0
            assert store.ingest_cags(key, trace.cags) == len(trace.cags)
            # Re-offering the same CAGs is a no-op (idempotent ingest).
            assert store.ingest_cags(key, trace.cags) == 0


class TestIncrementalEqualsBatch:
    def test_streaming_chunked_ingest_is_digest_identical(
        self, tmp_path, store_sources
    ):
        """The acceptance criterion: incremental streaming ingest (live,
        chunk-boundary commits) and one-shot batch ingest store the same
        requests -- pinned by the canonical run digest."""
        path = tmp_path / "s.sqlite"
        source = store_sources["rubis"]

        batch = Pipeline(source=source, backend=BackendSpec.batch()).run()
        StoreSink(path, run_id="batch", scenario="rubis").write(batch)

        sink = StoreSink(path, run_id="stream", scenario="rubis", commit_every=4)
        pipeline = Pipeline(
            source=source,
            backend=BackendSpec.streaming(chunk_size=64),
            sinks=[sink],
        )
        pipeline.run()

        with TraceStore.open(path) as store:
            assert store.run_digest("batch") == store.run_digest("stream")
            assert (
                store.run_row("batch")["requests"]
                == store.run_row("stream")["requests"]
            )

    def test_resumed_reingest_is_idempotent(self, tmp_path, store_sources):
        """A resumed streaming run re-emits CAGs that finished after the
        last checkpoint; re-ingesting them must not duplicate rows."""
        path = tmp_path / "s.sqlite"
        session = Pipeline(source=store_sources["rubis"], backend=BackendSpec.batch()).run()
        cags = session.cags
        with TraceStore(path) as store:
            key = store.begin_run("r", scenario="rubis")
            store.ingest_cags(key, cags[: len(cags) // 2])
            store.commit()
        # "Crash", reopen, resume the same (unfinalized) run: the resumed
        # stream replays an overlapping suffix.
        with TraceStore(path) as store:
            key = store.begin_run("r", scenario="rubis")
            store.ingest_cags(key, cags[len(cags) // 3 :])
            store.finalize_run(key, scenario="rubis")
        StoreSink(path, run_id="oneshot", scenario="rubis").write(session)
        with TraceStore.open(path) as store:
            assert store.run_row("r")["requests"] == len(cags)
            assert store.run_digest("r") == store.run_digest("oneshot")

    def test_root_key_is_data_derived(self, library_store):
        path, traces = library_store
        cag = traces["rubis"].cags[0]
        key = cag_root_key(cag)
        # Only logged fields: no Activity.seq, no interned per-process ints.
        assert cag.root.timestamp.hex() in key
        assert str(cag.root.context.as_tuple()) in key


class TestSinkSweepAndPatternCache:
    """``StoreSink.write`` ingests only what ``on_cag`` never offered, and
    the store resolves pattern keys from a per-connection cache; neither
    may change a stored row."""

    @pytest.fixture()
    def ingests(self, monkeypatch):
        offered = []
        original = TraceStore.ingest_cag

        def ingest_cag(self, run_key, cag):
            offered.append(cag)
            return original(self, run_key, cag)

        monkeypatch.setattr(TraceStore, "ingest_cag", ingest_cag)
        return offered

    def test_sink_without_the_live_hook_sweeps_everything(
        self, tmp_path, store_sources, ingests
    ):
        path = tmp_path / "s.sqlite"
        source = store_sources["rubis"]
        session = Pipeline(source=source, backend=BackendSpec.batch()).run()
        StoreSink(path, run_id="swept", scenario="rubis").write(session)
        assert ingests == session.cags
        del ingests[:]
        StoreSink(path, run_id="oneshot", scenario="rubis").write(session)
        assert ingests == session.cags
        with TraceStore.open(path) as store:
            assert store.run_row("swept")["requests"] == len(session.cags)
            assert store.run_digest("swept") == store.run_digest("oneshot")

    def test_live_hook_leaves_nothing_to_sweep(self, tmp_path, store_sources, ingests):
        path = tmp_path / "s.sqlite"
        sink = StoreSink(path, run_id="live", scenario="rubis")
        session = Pipeline(
            source=store_sources["rubis"], backend=BackendSpec.batch(), sinks=[sink]
        ).run()
        assert ingests == session.cags  # each offered once, by on_cag
        with TraceStore.open(path) as store:
            assert store.run_row("live")["requests"] == len(session.cags)

    def test_resumed_unfinalized_run_sweeps_the_revived_cags(
        self, tmp_path, store_sources, ingests
    ):
        """A streaming run dies after a checkpoint; the resumed run's live
        hook only sees what finishes from there on, the final sweep adds
        the CAGs revived from the checkpoint, and the run ends up equal to
        a one-shot ingest."""
        path = tmp_path / "s.sqlite"
        ckpt = str(tmp_path / "run.ckpt")
        source = store_sources["rubis"]
        half = len(source.activities()) // 2

        crashed = StoreSink(path, run_id="r", scenario="rubis", commit_every=1)

        class Crash(Exception):
            pass

        def store_then_die_once_checkpointed(cag):
            crashed.on_cag(cag)
            if os.path.exists(ckpt):
                raise Crash

        with pytest.raises(Crash):
            BackendSpec.streaming(
                chunk_size=64, checkpoint_path=ckpt, checkpoint_every=half
            ).correlate(source.activities(), on_cag=store_then_die_once_checkpointed)
        del crashed  # the process died: run "r" stays unfinalized
        stored_before_the_crash = len(ingests)
        assert stored_before_the_crash > 0
        del ingests[:]

        live = []
        session = Pipeline(
            source=source,
            backend=BackendSpec.streaming(chunk_size=64, resume_from=ckpt),
            sinks=[StoreSink(path, run_id="r", scenario="rubis")],
        ).run(on_cag=live.append)
        assert 0 < len(live) < len(session.cags)  # some CAGs were revived
        # Live ones first, then exactly the rest -- nothing offered twice.
        assert ingests[: len(live)] == live
        assert len(ingests) == len(session.cags)
        assert set(map(id, ingests)) == set(map(id, session.cags))

        batch = Pipeline(source=source, backend=BackendSpec.batch()).run()
        StoreSink(path, run_id="oneshot", scenario="rubis").write(batch)
        with TraceStore.open(path) as store:
            assert store.run_row("r")["finalized"] == 1
            assert store.run_row("r")["requests"] == len(batch.cags)
            assert store.run_digest("r") == store.run_digest("oneshot")

    def test_pattern_rows_are_reused_across_runs_and_reopen(
        self, tmp_path, store_sources
    ):
        path = tmp_path / "s.sqlite"
        trace = BackendSpec.batch().trace(store_sources["rubis"].activities())
        other = BackendSpec.batch().trace(store_sources["cache_aside"].activities())
        classifier = PatternClassifier()
        classifier.add_all(trace.cags)
        expected = {signature_hash(p.signature): p.count for p in classifier.patterns}

        with TraceStore(path) as store:
            for run_id in ("first", "second"):
                key = store.begin_run(run_id, scenario="rubis")
                store.ingest_cags(key, trace.cags)
                store.finalize_run(key)
            cached = dict(store._pattern_keys)
            assert len(cached) == len(expected)
        # A fresh connection starts with an empty cache and must land on
        # the rows the first connection wrote, while new shapes get new rows.
        with TraceStore(path) as store:
            assert store._pattern_keys == {}
            key = store.begin_run("mixed")
            store.ingest_cags(key, other.cags)
            store.finalize_run(key)
            key = store.begin_run("third", scenario="rubis")
            store.ingest_cags(key, trace.cags)
            store.finalize_run(key)
            for signature, pattern_key in cached.items():
                assert store._pattern_keys[signature] == pattern_key
            for run_id in ("first", "second", "third"):
                mix = {row["pattern"]: row["count"] for row in pattern_mix(store, run_id)}
                assert mix == expected
            assert store.run_digest("first") == store.run_digest("third")

        rows = sqlite3.connect(path).execute(
            "SELECT COUNT(*), COUNT(DISTINCT signature_hash) FROM patterns"
        ).fetchone()
        distinct = {cag_signature(cag) for cag in trace.cags + other.cags}
        assert rows[0] == rows[1] == len(distinct)

    def test_a_deformed_cag_is_counted_incomplete_and_the_run_finalized(
        self, tmp_path, store_sources
    ):
        """A finished CAG that is not a DAG has no signature to store it
        under: the one write path counts it in the run row's
        ``incomplete`` and still finalizes the run."""
        path = tmp_path / "s.sqlite"
        source = store_sources["cache_aside"]
        result = BackendSpec.batch().correlate(source.activities())
        stored = len(result.cags)
        result.cags.insert(1, cyclic_cag())
        session = TraceSession(
            source=source, backend=BackendSpec.batch(), trace=TraceResult(correlation=result)
        )
        StoreSink(path, run_id="deformed", scenario="cache_aside").write(session)
        with TraceStore.open(path) as store:
            row = store.run_row("deformed")
            assert row["finalized"] == 1
            assert row["requests"] == stored
            assert row["incomplete"] == len(result.incomplete_cags) + 1


class TestQueries:
    def test_percentiles_match_in_memory_computation(self, library_store):
        path, traces = library_store
        durations = sorted(
            cag.duration() for cag in traces["rubis"].cags if cag.duration() is not None
        )
        with TraceStore.open(path) as store:
            (row,) = latency_over_windows(store, run_id="run-rubis")
        assert row["count"] == len(durations)
        for q, key in ((50.0, "p50_s"), (95.0, "p95_s"), (99.0, "p99_s")):
            assert row[key] == percentile(durations, q)
        assert row["max_s"] == max(durations)
        assert row["mean_s"] == pytest.approx(sum(durations) / len(durations))

    def test_per_pattern_percentiles_match_in_memory(self, library_store):
        path, traces = library_store
        by_pattern = {}
        for cag in traces["rubis"].cags:
            digest = signature_hash(cag_signature(cag))
            by_pattern.setdefault(digest, []).append(cag.duration())
        with TraceStore.open(path) as store:
            mix = pattern_mix(store, "run-rubis")
        assert {row["pattern"] for row in mix} == set(by_pattern)
        for row in mix:
            expected = summarize_durations(
                [d for d in by_pattern[row["pattern"]] if d is not None]
            )
            assert row["p50_s"] == expected["p50_s"]
            assert row["p95_s"] == expected["p95_s"]

    def test_bucketing_is_absolute_and_complete(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            (whole,) = latency_over_windows(store, run_id="run-rubis")
            buckets = latency_over_windows(store, run_id="run-rubis", bucket_s=1.0)
        assert sum(row["count"] for row in buckets) == whole["count"]
        for row in buckets:
            assert row["begin_s"] == int(row["begin_s"])  # absolute grid

    def test_pattern_filter_accepts_label_and_hash_prefix(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            mix = pattern_mix(store, "run-rubis")
            top = mix[0]
            by_label = store.durations(run_id="run-rubis", pattern=top["label"])
            by_hash = store.durations(
                run_id="run-rubis", pattern=top["pattern"][:12]
            )
            assert by_hash  # prefix >= 6 chars resolves
            assert set(by_hash) <= set(by_label) or by_hash == by_label
            with pytest.raises(ValueError, match="no pattern matches"):
                store.durations(run_id="run-rubis", pattern="nosuchpattern")

    def test_scenario_filter_spans_runs(self, library_store):
        path, traces = library_store
        with TraceStore.open(path) as store:
            rows = store.request_rows(scenario="cache_aside")
            assert len(rows) == len(traces["cache_aside"].cags)
            assert {row["run_id"] for row in rows} == {"run-cache_aside"}

    def test_mix_drift_between_scenarios_flags_new_and_vanished(
        self, library_store
    ):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            rows = mix_drift(store, "run-rubis", "run-cache_aside")
        statuses = {row["status"] for row in rows}
        assert "new" in statuses and "vanished" in statuses
        # Shares are per-run fractions: each side sums to ~1.
        assert sum(r["base_share"] for r in rows) == pytest.approx(1.0)
        assert sum(r["current_share"] for r in rows) == pytest.approx(1.0)

    def test_unknown_run_id_raises_with_the_known_ids(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            with pytest.raises(ValueError, match="unknown run id 'nope'"):
                store.run_row("nope")


class TestDiff:
    def test_self_diff_is_clean(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            summary = run_summary(store, "run-rubis")
        diff = diff_summaries(summary, summary)
        assert diff.ok
        assert diff.regressions == []
        assert diff.new_patterns == [] and diff.vanished_patterns == []
        assert all(row.p50_change == 0.0 for row in diff.rows)
        assert "PASS" in diff.describe()

    def test_slowdown_beyond_tolerance_regresses(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            base = run_summary(store, "run-rubis")
        current = json.loads(json.dumps(base))
        for row in current["patterns"]:
            for key in ("p50_s", "p95_s"):
                row[key] = row[key] * 1.5
        diff = diff_summaries(base, current, tolerance=0.25)
        assert not diff.ok
        assert len(diff.regressions) == len(base["patterns"])
        # The same movement inside the tolerance passes.
        assert diff_summaries(base, current, tolerance=0.6).ok
        # Speedups never regress.
        assert diff_summaries(current, base, tolerance=0.25).ok

    def test_new_and_vanished_patterns_are_regressions(self, library_store):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            base = run_summary(store, "run-rubis")
        current = json.loads(json.dumps(base))
        dropped = current["patterns"].pop()
        diff = diff_summaries(base, current)
        assert not diff.ok
        assert [row.pattern for row in diff.vanished_patterns] == [
            dropped["pattern"]
        ]
        reverse = diff_summaries(current, base)
        assert [row.pattern for row in reverse.new_patterns] == [dropped["pattern"]]

    def test_export_round_trips_through_the_loader(self, library_store, tmp_path):
        path, _traces = library_store
        with TraceStore.open(path) as store:
            summary = run_summary(store, "run-rubis")
        out = tmp_path / "run.json"
        out.write_text(json.dumps(summary), encoding="utf-8")
        assert load_run_summary(str(out)) == summary
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not an exported run summary"):
            load_run_summary(str(bad))


class TestStoreFiles:
    def test_missing_store_file_refused_on_open(self, tmp_path):
        with pytest.raises(ValueError, match="store file not found"):
            TraceStore.open(tmp_path / "absent.sqlite")

    def test_missing_parent_directory_refused(self, tmp_path):
        with pytest.raises(ValueError, match="store directory does not exist"):
            TraceStore(tmp_path / "no" / "such" / "dir.sqlite")

    def test_sink_refuses_a_missing_directory_before_the_run(self, tmp_path):
        # Refused when the sink is built, not when the first CAG arrives.
        with pytest.raises(ValueError, match="store directory does not exist"):
            StoreSink(tmp_path / "no" / "such" / "dir.sqlite")

    def test_non_database_file_refused(self, tmp_path):
        path = tmp_path / "not_a_db.sqlite"
        path.write_text("this is not SQLite", encoding="utf-8")
        with pytest.raises(ValueError, match="not a trace store"):
            TraceStore(path)

    def test_schema_version_mismatch_refused_with_clear_error(self, tmp_path):
        path = tmp_path / "future.sqlite"
        TraceStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(ValueError) as excinfo:
            TraceStore(path)
        message = str(excinfo.value)
        assert f"schema version {SCHEMA_VERSION + 1}" in message
        assert f"supports version {SCHEMA_VERSION}" in message

    def test_finalized_run_id_cannot_be_reused(self, tmp_path, store_sources):
        path = tmp_path / "s.sqlite"
        session = Pipeline(source=store_sources["cache_aside"], backend=BackendSpec.batch()).run()
        StoreSink(path, run_id="day1", scenario="cache_aside").write(session)
        with TraceStore(path) as store:
            with pytest.raises(ValueError, match="already exists \\(finalized\\)"):
                store.begin_run("day1")


class TestHelpers:
    def test_percentile_is_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 75.0) == 3.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 1.0) == 1.0
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile(values, 0.0)

    def test_signature_label_collapses_consecutive_programs(self, library_store):
        _path, traces = library_store
        signature = cag_signature(traces["rubis"].cags[0])
        label = signature_label(signature)
        hops = label.split(">")
        assert all(a != b for a, b in zip(hops, hops[1:]))
        assert hops[0] == "httpd"

    def test_git_describe_describes_the_ingesting_checkout_not_the_cwd(
        self, tmp_path, monkeypatch
    ):
        """The ``git_describe`` column is provenance of the *code* that
        ingested: standing in some other repository must not change it."""
        if shutil.which("git") is None:
            pytest.skip("no git")

        def git(*args, cwd):
            return subprocess.run(
                ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=30
            )

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        identity = ["-c", "user.name=t", "-c", "user.email=t@example.org"]
        for command in (
            ["init", "-q"],
            [*identity, "commit", "-q", "--allow-empty", "-m", "x"],
            [*identity, "tag", "-a", "not-this-checkout", "-m", "x"],
        ):
            assert git(*command, cwd=elsewhere).returncode == 0, command
        assert git("describe", cwd=elsewhere).stdout.strip() == "not-this-checkout"
        package = os.path.dirname(os.path.abspath(store_module.__file__))
        here = git("describe", "--always", "--dirty", cwd=package)
        expected = (here.stdout.strip() if here.returncode == 0 else "") or "unknown"
        monkeypatch.chdir(elsewhere)
        store_module.git_describe.cache_clear()
        try:
            assert store_module.git_describe() == expected != "not-this-checkout"
        finally:
            store_module.git_describe.cache_clear()
