"""Tests for the unified pipeline facade (repro.pipeline).

The load-bearing test is the **equivalence matrix**: every scenario of
the topology library, run through all three backends (batch, streaming,
sharded), must produce byte-identical correlation results -- asserted
both pairwise (``verify_equivalence``) and against the pinned golden
digests in ``tests/golden_pipeline_digests.json``, so any engine,
ranker, topology or backend change that silently alters a reconstruction
shows up here first.

Regenerate the golden file after an *intentional* output change with::

    PYTHONPATH=src:tests python tests/test_pipeline.py --regenerate

The rest covers the facade (sources, stages, sinks), backend-spec
validation, and the mismatch-reporting path of the equivalence API.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.pipeline.backends as backends_module
from helpers import SyntheticTrace, assert_results_equal, use_kernel, write_node_logs
from repro.core.activity import Activity, ActivityType
from repro.core.correlator import PEAK_SAMPLE_EVERY, IncrementalEngine
from repro.core.log_format import format_record
from repro.pipeline import (
    AccuracyStage,
    BackendSpec,
    BreakdownStage,
    CagJsonlSink,
    DiagnosisStage,
    DotSink,
    DriveTimings,
    EquivalenceError,
    LogSource,
    MemorySource,
    PatternStage,
    Pipeline,
    ProfileStage,
    RankedLatencyStage,
    RunSource,
    SamplingSpec,
    SummaryJsonSink,
    TraceSession,
    as_source,
    result_digest,
    verify_equivalence,
)
from repro.services.noise import NoiseConfig
from repro.topology.library import ScenarioConfig, run_scenario, scenario_names
from repro.topology.workload import WorkloadStages

#: Shared matrix run parameters -- the golden digests are pinned for
#: exactly these (change them only together with --regenerate).
MATRIX_STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)
MATRIX_SEED = 11
MATRIX_WINDOW = 0.010

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_pipeline_digests.json"


def matrix_config(name: str) -> ScenarioConfig:
    """The pinned run configuration of one matrix scenario."""
    overrides = {"clients": 40} if name == "rubis" else {}
    return ScenarioConfig(
        scenario=name, stages=MATRIX_STAGES, seed=MATRIX_SEED, **overrides
    )


@pytest.fixture(scope="session")
def matrix_sources():
    """One lazily-executed, memoised source per library scenario."""
    return {name: RunSource(config=matrix_config(name)) for name in scenario_names()}


# ---------------------------------------------------------------------------
# the equivalence matrix: 5 scenarios x 3 backends, pinned
# ---------------------------------------------------------------------------


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    def test_all_backends_identical_and_pinned(self, matrix_sources, name):
        report = verify_equivalence(matrix_sources[name], window=MATRIX_WINDOW)
        assert {o.kind for o in report.outcomes} == {"batch", "streaming", "sharded"}
        assert report.equivalent, report.describe()
        golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
        assert report.digest == golden[name], (
            f"{name}: pipeline output diverged from the pinned golden digest "
            "(if intentional, regenerate with "
            "`PYTHONPATH=src:tests python tests/test_pipeline.py --regenerate`)"
        )

    def test_pipeline_verify_equivalence_uses_the_pipeline_window(self, matrix_sources):
        pipeline = Pipeline(
            matrix_sources["cache_aside"], backend=BackendSpec.batch(window=0.005)
        )
        report = pipeline.verify_equivalence()
        assert report.equivalent, report.describe()
        assert all(o.backend.window == 0.005 for o in report.outcomes)


# ---------------------------------------------------------------------------
# the batch driver is a producer: CAGs leave while the drain runs
# ---------------------------------------------------------------------------


def one_flush(rows, window=MATRIX_WINDOW):
    """The batch run as one unsliced drain: buffer, seal, ``flush()``."""
    engine = IncrementalEngine(window=window)
    engine.buffer(rows)
    engine.flush()
    return engine.result()


class TestBatchHandsCagsOutMidDrain:
    @pytest.fixture(autouse=True)
    def one_period_slices(self, monkeypatch):
        # the matrix traces are smaller than one production slice
        monkeypatch.setattr("repro.core.correlator.FLUSH_SLICE_SAMPLES", 1)

    @pytest.mark.parametrize("mode", ["python", "native"])
    @pytest.mark.parametrize("name", scenario_names() + ["rubis_golden_loaded"])
    def test_hook_or_not_sliced_or_not_the_result_is_the_same(
        self, matrix_sources, loaded_run, name, mode, monkeypatch
    ):
        use_kernel(monkeypatch, mode)
        if name == "rubis_golden_loaded":
            source = RunSource.from_run(loaded_run)
        else:
            source = matrix_sources[name]
        spec = BackendSpec.batch(window=MATRIX_WINDOW)
        handed = []
        hooked = spec.correlate(source.activities(), on_cag=handed.append)
        plain = spec.correlate(source.activities())
        assert hooked.cags and [id(cag) for cag in handed] == [
            id(cag) for cag in hooked.cags
        ]
        assert hooked.total_activities > PEAK_SAMPLE_EVERY  # more than one slice
        assert_results_equal(hooked, plain)
        assert_results_equal(hooked, one_flush(source.table()))

    def test_first_hook_call_is_mid_drain(self, matrix_sources, monkeypatch):
        made = []

        class Capturing(IncrementalEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(backends_module, "IncrementalEngine", Capturing)
        progress = []

        def hook(_cag):
            engine = made[0]
            progress.append((engine.ranker.stats.delivered, engine._flushed))

        source = matrix_sources["five_tier_chain"]
        result = BackendSpec.batch(window=MATRIX_WINDOW).correlate(
            source.activities(), on_cag=hook
        )
        assert len(made) == 1 and len(progress) == len(result.cags)
        delivered, flushed = progress[0]
        assert 0 < delivered < result.total_activities and not flushed
        assert delivered % PEAK_SAMPLE_EVERY == 0
        assert [row[0] for row in progress] == sorted(row[0] for row in progress)
        assert progress[-1][0] == result.ranker_stats.delivered

    def test_a_sleeping_hook_is_in_hook_time_not_in_correlation_time(self, tiny_run):
        nap, calls = 0.02, []

        def hook(_cag):
            if len(calls) < 10:
                time.sleep(nap)
            calls.append(None)

        timings = DriveTimings()
        trace = BackendSpec.batch(window=MATRIX_WINDOW).run(
            RunSource.from_run(tiny_run), on_cag=hook, timings=timings
        )
        assert len(calls) == trace.request_count > 10
        assert timings.hook_time_s >= 10 * nap
        assert trace.correlation_time + timings.hook_time_s < timings.wall_clock_s
        assert 0 < timings.first_cag_s < timings.wall_clock_s - 9 * nap

    def test_a_raising_hook_propagates_and_the_next_run_is_clean(self, tiny_run):
        collector_was_on = gc.isenabled()
        pipeline = Pipeline(source=tiny_run, backend=BackendSpec.batch())

        def hook(_cag):
            raise LookupError("hook bug")

        with pytest.raises(LookupError, match="hook bug"):
            pipeline.run(on_cag=hook)
        assert gc.isenabled() is collector_was_on
        seen = []
        session = pipeline.run(on_cag=seen.append)
        assert gc.isenabled() is collector_was_on
        assert len(seen) == session.request_count > 0
        assert result_digest(session.trace.correlation) == result_digest(
            BackendSpec.batch().correlate(tiny_run.activities())
        )

    def test_budget_sampling_with_a_hook_equals_without(self, tiny_run):
        spec = BackendSpec.batch(window=MATRIX_WINDOW, sampling=SamplingSpec.budget(5))
        handed = []
        hooked = spec.correlate(tiny_run.activities(), on_cag=handed.append)
        plain = spec.correlate(tiny_run.activities())
        assert 0 < len(handed) < tiny_run.completed_requests
        assert [id(cag) for cag in handed] == [id(cag) for cag in hooked.cags]
        assert_results_equal(hooked, plain)


class TestDriveTimings:
    @pytest.mark.parametrize("kind", ["batch", "streaming", "sharded"])
    def test_every_backend_kind_reports_them(self, tiny_run, kind):
        seen = []
        session = Pipeline(
            source=tiny_run, backend=BackendSpec(kind=kind, window=MATRIX_WINDOW)
        ).run(on_cag=seen.append)
        timings = session.timings
        assert len(seen) == session.request_count
        assert 0 < timings.first_cag_s <= timings.wall_clock_s
        assert 0 < timings.hook_time_s < timings.wall_clock_s
        assert session.trace.correlation_time < timings.wall_clock_s
        if kind == "sharded":
            # the merged CAG list only exists after every component ran
            assert session.trace.correlation_time < timings.first_cag_s
        summary = session.summary()
        assert summary["wall_clock_s"] == timings.wall_clock_s
        assert summary["first_cag_s"] == timings.first_cag_s
        assert summary["hook_time_s"] == timings.hook_time_s

    def test_without_a_hook_the_first_cag_is_still_timed(self, tiny_run):
        session = Pipeline(source=tiny_run).run()
        assert session.timings.hook_time_s == 0.0
        assert 0 < session.timings.first_cag_s < session.timings.wall_clock_s

    def test_a_trace_that_finishes_nothing_has_no_first_cag(self):
        session = Pipeline(source=MemorySource([])).run()
        assert session.timings.first_cag_s is None
        assert session.summary()["first_cag_s"] is None

    def test_a_hand_assembled_session_has_none(self, tiny_run, tiny_trace):
        session = TraceSession(
            source=RunSource.from_run(tiny_run), backend=BackendSpec(), trace=tiny_trace
        )
        assert session.timings is None and session.drive_timings() == {}
        assert "wall_clock_s" not in session.summary()

    def test_the_simulation_is_outside_the_drive_clock(self, tiny_run):
        order = []

        class SlowToSimulate(RunSource):
            @property
            def run(self):
                if not order:
                    time.sleep(0.5)
                order.append("run")
                return super().run

            def activities(self):
                order.append("activities")
                return super().activities()

        session = Pipeline(source=SlowToSimulate.from_run(tiny_run)).run()
        assert order[0] == "run" and "activities" in order
        assert session.timings.wall_clock_s < 0.5


class TestEquivalenceReporting:
    def _divergent_trace(self) -> SyntheticTrace:
        """A trace where a short streaming horizon genuinely changes the
        output: a request whose BEGIN sits idle far longer than the
        horizon (its state is evicted before the work arrives) plus
        steady unrelated traffic that keeps the watermark moving."""
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=0.5, web_pid=100)
        # the straggler: BEGIN now, work only after a long idle gap
        trace.three_tier_request(request_id=2, start=6.0, web_pid=101)
        straggler_begin = next(
            a for a in trace.activities
            if a.request_id == 2 and a.type is ActivityType.BEGIN
        )
        straggler_begin.timestamp = 0.6
        # watermark movers between the BEGIN and the late work
        for index in range(3, 7):
            trace.three_tier_request(
                request_id=index, start=1.0 + index * 0.8, web_pid=100 + index
            )
        return trace

    def test_mismatch_is_reported_not_hidden(self):
        trace = self._divergent_trace()
        source = MemorySource(trace.activities)
        backends = [
            BackendSpec.batch(window=MATRIX_WINDOW),
            BackendSpec.streaming(window=MATRIX_WINDOW, horizon=1.0, skew_bound=0.001),
        ]
        report = verify_equivalence(source, backends=backends)
        assert not report.equivalent
        assert report.digest is None
        assert [o.kind for o in report.mismatches()] == ["streaming"]
        assert "MISMATCH" in report.describe()
        with pytest.raises(EquivalenceError):
            report.require()

    def test_generous_horizon_restores_equivalence(self):
        trace = self._divergent_trace()
        source = MemorySource(trace.activities)
        backends = [
            BackendSpec.batch(window=MATRIX_WINDOW),
            BackendSpec.streaming(window=MATRIX_WINDOW, horizon=60.0, skew_bound=0.001),
        ]
        verify_equivalence(source, backends=backends).require()


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class TestSources:
    def test_as_source_adapts_configs_runs_and_lists(self, tiny_run):
        from helpers import tiny_config

        assert isinstance(as_source(tiny_config()), RunSource)
        assert isinstance(as_source(tiny_run), RunSource)
        assert isinstance(as_source(tiny_run.activities()), MemorySource)
        source = as_source(tiny_run)
        assert source is as_source(source)  # sources pass through
        with pytest.raises(TypeError):
            as_source("/var/log/trace.log")  # log files need a frontend

    def test_run_source_hands_out_fresh_activities(self, tiny_run):
        source = RunSource.from_run(tiny_run)
        first = source.activities()
        second = source.activities()
        assert len(first) == len(second) == tiny_run.total_activities
        assert first[0] is not second[0]
        assert source.ground_truth is tiny_run.ground_truth

    def test_memory_source_clones_protect_the_originals(self, tiny_run):
        source = MemorySource(tiny_run.activities())
        spec = BackendSpec.batch(window=MATRIX_WINDOW)
        # Two passes over the same source: if the first pass's in-place
        # byte merging leaked into the held originals, the second digest
        # would differ.
        assert result_digest(spec.correlate(source.activities())) == result_digest(
            spec.correlate(source.activities())
        )

    def test_log_source_matches_the_simulation_source(self, tiny_run, tmp_path):
        # One log file per node, as a real deployment would hand us.
        paths = []
        for node, records in sorted(tiny_run.records_by_node.items()):
            path = tmp_path / f"tcp_trace_{node}.log"
            path.write_text(
                "".join(format_record(record) + "\n" for record in records),
                encoding="utf-8",
            )
            paths.append(path)
        log_source = LogSource(
            paths,
            frontend=tiny_run.frontend_spec(),
            ignore_programs=set(tiny_run.topology.ignore_programs),
        )
        # The text round trip truncates timestamps to the TCP_TRACE
        # format's 6-decimal precision, so digests cannot be compared
        # against the in-memory source; the reconstruction itself must
        # still be complete and exact.
        session = Pipeline(
            source=log_source,
            backend=BackendSpec.batch(window=MATRIX_WINDOW),
        ).run()
        assert session.request_count == tiny_run.completed_requests
        assert log_source.malformed_lines == 0
        from repro.core.accuracy import path_accuracy

        report = path_accuracy(
            session.cags, tiny_run.ground_truth, time_tolerance=1e-5
        )
        assert report.accuracy == 1.0
        # and the three backends agree on the file-based source too
        verify_equivalence(log_source, window=MATRIX_WINDOW).require()

    def test_log_source_counts_malformed_lines(self, tiny_run, tmp_path):
        path = tmp_path / "torn.log"
        lines = [format_record(r) for r in tiny_run.all_records()[:10]]
        lines.insert(3, "this is not a record")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        source = LogSource(path, frontend=tiny_run.frontend_spec())
        activities = source.activities()
        assert len(activities) == 10
        assert source.malformed_lines == 1


# ---------------------------------------------------------------------------
# the batch drive over log files: columns in, objects out late
# ---------------------------------------------------------------------------


def _live_activities() -> int:
    gc.collect()
    return sum(type(obj) is Activity for obj in gc.get_objects())


class TestObjectsAreBornLate:
    @pytest.fixture(scope="class")
    def noisy_logs(self, tmp_path_factory):
        """RUBiS under ten times the paper's noise, as per-node logs."""
        run = run_scenario(
            ScenarioConfig(
                scenario="rubis",
                clients=30,
                stages=MATRIX_STAGES,
                seed=MATRIX_SEED,
                noise=NoiseConfig.paper_noise(10),
            )
        )
        return run, write_node_logs(run, tmp_path_factory.mktemp("noisy"))

    def _source(self, noisy_logs):
        run, paths = noisy_logs
        return LogSource(
            paths, run.frontend_spec(), ignore_programs=run.topology.ignore_programs
        )

    def test_few_activities_exist_when_the_first_cag_is_handed_out(
        self, noisy_logs, monkeypatch
    ):
        """Pins the memory: a later change cannot silently build the
        whole trace as objects again in front of the batch engine."""
        # a slice per sampling period: the first hand-over comes early
        monkeypatch.setattr("repro.core.correlator.FLUSH_SLICE_SAMPLES", 1)
        alive = []

        def count_activities(_cag):
            if not alive:
                alive.append(_live_activities())

        baseline = _live_activities()
        session = Pipeline(self._source(noisy_logs), BackendSpec.batch()).run(
            on_cag=count_activities
        )
        total = session.trace.correlation.total_activities
        assert total > 10 * PEAK_SAMPLE_EVERY
        # the first slice's deliveries, not the trace
        assert alive and alive[0] - baseline < total / 10
        # the same trace object-fed holds every activity at that point
        del alive[:]
        BackendSpec.batch().correlate(
            self._source(noisy_logs).activities(), on_cag=count_activities
        )
        assert alive[0] - baseline >= total

    def test_summary_counts_the_objects_built_from_the_rows(self, noisy_logs):
        session = Pipeline(self._source(noisy_logs), BackendSpec.batch()).run()
        summary = session.summary()
        correlation = session.trace.correlation
        stats = correlation.ranker_stats
        assert "packed_rows" not in summary
        assert summary["materialised_activities"] == stats.delivered
        assert stats.noise_discarded > 0.1 * correlation.total_activities
        assert (
            correlation.total_activities - summary["materialised_activities"]
            == stats.noise_discarded
        )
        # every backend is fed rows, and builds only what it delivers
        for backend in (BackendSpec.streaming(), BackendSpec.sharded()):
            result = Pipeline(self._source(noisy_logs), backend).run()
            counters = result.source_counters()
            delivered = result.trace.correlation.ranker_stats.delivered
            assert counters["materialised_activities"] == delivered == stats.delivered


class TestATracerDoesNotLoadASimulator:
    def test_the_tracer_side_imports_no_simulation_side(self):
        program = (
            "import sys\n"
            "import repro.core, repro.stream, repro.store, repro.pipeline\n"
            "loaded = [name for name in ('repro.sim', 'repro.topology', 'repro.services',"
            " 'repro.experiments', 'concurrent.futures') if name in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from repro import run_scenario, ScenarioConfig, FaultConfig, WorkloadStages\n"
            "assert 'repro.topology' in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": ""},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_every_public_name_still_resolves(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert not missing
        assert set(repro._SIMULATION_SIDE) <= set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError):
            repro.no_such_name


# ---------------------------------------------------------------------------
# the facade: stages and sinks
# ---------------------------------------------------------------------------


class TestPipelineFacade:
    def test_stages_and_sinks_compose(self, tiny_run, tmp_path):
        pipeline = Pipeline(
            source=tiny_run,
            backend=BackendSpec.streaming(window=MATRIX_WINDOW, skew_bound=0.002),
            stages=[
                AccuracyStage(),
                RankedLatencyStage(top=3),
                PatternStage(),
                BreakdownStage(),
                ProfileStage("tiny"),
            ],
            sinks=[
                SummaryJsonSink(tmp_path / "summary.json"),
                CagJsonlSink(tmp_path / "cags.jsonl"),
                DotSink(tmp_path / "dot", limit=2),
            ],
        )
        session = pipeline.run()

        assert session.request_count == tiny_run.completed_requests
        assert session.analyses["accuracy"].accuracy == 1.0
        ranked = session.analyses["ranked_latency"]
        assert 0 < len(ranked) <= 3
        assert ranked[0]["rank"] == 1
        assert ranked[0]["paths"] >= ranked[-1]["paths"]  # most frequent first
        assert sum(ranked[0]["percentages"].values()) == pytest.approx(100.0)
        assert session.analyses["patterns"]
        assert session.analyses["breakdown"].total > 0
        assert session.analyses["profile"].percentages

        summary = json.loads((tmp_path / "summary.json").read_text("utf-8"))
        assert summary["requests"] == session.request_count
        assert summary["backend"].startswith("streaming")

        jsonl_lines = (tmp_path / "cags.jsonl").read_text("utf-8").splitlines()
        assert len(jsonl_lines) == session.request_count
        first = json.loads(jsonl_lines[0])
        assert first["finished"] and first["vertices"]

        dots = sorted((tmp_path / "dot").glob("*.dot"))
        assert len(dots) == 2
        assert "digraph cag" in dots[0].read_text("utf-8")

        assert set(session.artifacts) == {"summary_json", "cag_jsonl", "dot"}

    def test_on_cag_hook_fires_per_finished_path(self, tiny_run):
        seen = []
        session = Pipeline(
            source=tiny_run,
            backend=BackendSpec.streaming(window=MATRIX_WINDOW, skew_bound=0.002),
        ).run(on_cag=seen.append)
        assert len(seen) == session.request_count

    def test_with_backend_swaps_only_the_driver(self, tiny_run):
        base = Pipeline(source=tiny_run, stages=[AccuracyStage()])
        sharded = base.with_backend(BackendSpec.sharded(window=MATRIX_WINDOW))
        assert sharded.source is base.source
        session = sharded.run()
        assert session.backend.kind == "sharded"
        assert session.analyses["accuracy"].accuracy == 1.0

    def test_accuracy_stage_requires_ground_truth(self, tiny_run):
        pipeline = Pipeline(
            source=MemorySource(tiny_run.activities()), stages=[AccuracyStage()]
        )
        with pytest.raises(ValueError, match="ground truth"):
            pipeline.run()

    def test_diagnosis_stage_accepts_a_reference_session(self, tiny_run):
        reference = Pipeline(source=tiny_run, stages=[ProfileStage("healthy")]).run()
        session = Pipeline(
            source=tiny_run,
            stages=[DiagnosisStage(reference, threshold=5.0)],
        ).run()
        diagnosis = session.analyses["diagnosis"]
        # same trace against itself: nothing above the threshold
        assert diagnosis.suspected_components() == []


# ---------------------------------------------------------------------------
# backend spec validation
# ---------------------------------------------------------------------------


class TestBackendSpec:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="quantum")
        with pytest.raises(ValueError):
            BackendSpec(window=0.0)
        with pytest.raises(ValueError):
            BackendSpec.streaming(horizon=-1.0)
        with pytest.raises(ValueError):
            BackendSpec.streaming(chunk_size=0)
        with pytest.raises(ValueError):
            BackendSpec.sharded(executor="fiber")

    @pytest.mark.parametrize("value", [0, -1, -3, 2.0, True])
    def test_shard_knobs_are_refused_at_construction(self, value):
        # A bad knob fails when the spec is built, naming the field --
        # not at run time, and never silently read as "unset".
        with pytest.raises(ValueError, match="max_workers"):
            BackendSpec.sharded(max_workers=value)

    def test_streaming_only_features_are_refused_on_the_sharded_kind(self, tmp_path):
        checkpoint = str(tmp_path / "ck.bin")
        with pytest.raises(ValueError, match="streaming-backend features"):
            BackendSpec(kind="sharded", checkpoint_path=checkpoint, checkpoint_every=5)
        with pytest.raises(ValueError, match="streaming-backend features"):
            BackendSpec(kind="sharded", resume_from=checkpoint)
        with pytest.raises(ValueError, match="adaptive sampling"):
            BackendSpec.sharded(sampling=SamplingSpec.adaptive(5))

    def test_describe_names_the_driver_and_knobs(self):
        batch = BackendSpec.batch(window=0.002).describe()
        assert batch.startswith("batch (window=0.002s")
        # every kind reports the active rank-kernel backend
        assert "kernel=python" in batch or "kernel=native" in batch
        streaming = BackendSpec.streaming(horizon=5.0).describe()
        assert "streaming" in streaming and "horizon=5s" in streaming
        assert "kernel=" in streaming
        # the harness's keywords change nothing, so describe nothing
        sharded = BackendSpec.sharded(max_workers=2).describe()
        assert sharded.startswith("sharded (window=0.01s")
        assert "max_workers" not in sharded and "executor" not in sharded
        assert "kernel=" in sharded


def _regenerate_goldens() -> None:
    digests = {}
    for name in scenario_names():
        report = verify_equivalence(
            RunSource(config=matrix_config(name)), window=MATRIX_WINDOW
        ).require()
        digests[name] = report.digest
        print(f"{name:20s} {report.digest}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate_goldens()
    else:
        print(__doc__)
