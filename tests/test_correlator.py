"""Tests for the Correlator (ranker + engine, offline mode)."""

import dataclasses
import gc
import time
import weakref

import pytest

from helpers import SyntheticTrace, assert_results_equal, packed
from repro.core import correlator as correlator_module
from repro.core.activity import sort_key
from repro.core.correlator import CorrelationResult, Correlator, IncrementalEngine
from repro.pipeline import result_digest
from repro.sampling import SamplingSpec


def build_trace(requests=5, skews=None, seg=None):
    trace = SyntheticTrace(
        skews=skews or {},
        sender_max=seg,
        receiver_max=int(seg * 0.7) if seg else None,
    )
    for index in range(requests):
        trace.three_tier_request(
            request_id=index + 1,
            start=0.1 + index * 0.02,
            web_pid=100 + index % 3,
            app_tid=200 + index % 4,
            db_tid=300 + index % 4,
            db_queries=1 + index % 3,
        )
    return trace


class TestCorrelatorBasics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Correlator(window=0.0)

    def test_every_request_yields_one_finished_cag(self):
        trace = build_trace(requests=6)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.completed_requests == 6
        assert not result.incomplete_cags

    def test_correlate_streams_matches_flat_input(self):
        trace = build_trace(requests=4)
        flat = Correlator(window=0.01).correlate(trace.activities)
        streamed = Correlator(window=0.01).correlate_streams(trace.by_node())
        assert flat.completed_requests == streamed.completed_requests
        assert flat.total_activities == streamed.total_activities

    def test_result_summary_keys(self):
        trace = build_trace(requests=2)
        result = Correlator(window=0.01).correlate(trace.activities)
        summary = result.summary()
        for key in (
            "completed_requests",
            "correlation_time_s",
            "peak_memory_bytes",
            "total_activities",
            "noise_discarded",
            "window_s",
        ):
            assert key in summary

    def test_correlation_time_is_measured(self):
        trace = build_trace(requests=3)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.correlation_time > 0.0

    def test_peak_memory_scales_with_buffered_activities(self):
        trace = build_trace(requests=20)
        small = Correlator(window=0.0001).correlate(trace.activities)
        large = Correlator(window=100.0).correlate(trace.activities)
        assert large.peak_buffered_activities >= small.peak_buffered_activities
        assert large.peak_memory_bytes >= small.peak_memory_bytes


class TestWindowIndependence:
    @pytest.mark.parametrize("window", [0.0005, 0.005, 0.05, 1.0, 50.0])
    def test_every_window_size_produces_the_same_paths(self, window):
        trace = build_trace(requests=8)
        result = Correlator(window=window).correlate(trace.activities)
        assert result.completed_requests == 8
        for cag in result.cags:
            assert len(cag.request_ids()) == 1
            cag.validate()

    @pytest.mark.parametrize("skew", [0.0, 0.01, 0.2])
    def test_clock_skew_does_not_change_path_count(self, skew):
        trace = build_trace(requests=8, skews={"app": skew, "db": -skew})
        result = Correlator(window=0.002).correlate(trace.activities)
        assert result.completed_requests == 8

    def test_segmented_messages_still_produce_one_path_per_request(self):
        trace = build_trace(requests=6, seg=700)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.completed_requests == 6
        for cag in result.cags:
            cag.validate()


class TestIncompleteTraces:
    def test_missing_end_leaves_cag_open(self):
        trace = build_trace(requests=3)
        # drop the END of the last request (simulated activity loss)
        activities = [
            a for a in trace.activities if not (a.request_id == 3 and a.type.name == "END")
        ]
        result = Correlator(window=0.01).correlate(activities)
        assert result.completed_requests == 2
        assert len(result.incomplete_cags) == 1
        assert result.incomplete_cags[0].is_deformed()

    def test_empty_input(self):
        result = Correlator(window=0.01).correlate([])
        assert result.completed_requests == 0
        assert result.total_activities == 0


class TestBatchIsASealedIncrementalRun:
    def test_batch_equals_ingest_all_then_flush_field_for_field(self, monkeypatch):
        # Sample every candidate, so both peaks are exact maxima and
        # cannot depend on where a drain stopped.
        monkeypatch.setattr(correlator_module, "PEAK_SAMPLE_EVERY", 1)

        def fresh():
            skews = {"app": 0.002, "db": -0.002}
            trace = build_trace(requests=12, skews=skews, seg=700)
            for index in range(5):
                trace.noise_receive(0.11 + index * 0.03)
            # one request loses its END: an incomplete CAG on both sides
            return [
                a
                for a in trace.activities
                if not (a.request_id == 12 and a.type.name == "END")
            ]

        batch = Correlator(window=0.01).correlate(fresh())
        engine = IncrementalEngine(window=0.01)
        emitted = engine.ingest(packed(sorted(fresh(), key=sort_key)))
        assert emitted  # the watermark let most of the trace through
        emitted += engine.flush()
        incremental = engine.result()

        assert [id(cag) for cag in emitted] == [id(cag) for cag in incremental.cags]
        assert result_digest(incremental) == result_digest(batch)
        assert batch.cags and batch.incomplete_cags  # neither list is trivially empty
        compared = assert_results_equal(batch, incremental)
        assert batch.ranker_stats.noise_discarded == 5
        assert compared == len(dataclasses.fields(CorrelationResult)) - 1


class TestSlicedDrain:
    """The batch drain runs a slice (``FLUSH_SLICE_SAMPLES`` sampling
    periods) at a time and hands each slice's CAGs out before the next
    one starts.  One period a slice here, so a small trace has several."""

    @pytest.fixture(autouse=True)
    def one_period_slices(self, monkeypatch):
        monkeypatch.setattr(correlator_module, "FLUSH_SLICE_SAMPLES", 1)

    @staticmethod
    def activities(requests=60):
        # ~18 activities a request: a handful of slices
        return build_trace(requests=requests, seg=700).activities

    def test_a_slice_is_the_constant_number_of_sampling_periods(self, monkeypatch):
        monkeypatch.undo()
        slice_size = (
            correlator_module.FLUSH_SLICE_SAMPLES * correlator_module.PEAK_SAMPLE_EVERY
        )
        activities = self.activities(requests=2 * slice_size // 16)
        assert len(activities) > 2 * slice_size
        correlator = Correlator(window=0.01)
        finished = correlator.correlate_iter(activities)
        next(finished)
        assert correlator.last_engine.ranker.stats.delivered == slice_size
        handed = 1 + sum(1 for _cag in finished)
        assert handed == correlator.last_engine.result().completed_requests

    def test_cags_leave_mid_drain_in_result_order_once_each(self):
        correlator = Correlator(window=0.01)
        finished = correlator.correlate_iter(self.activities())
        handed = [next(finished)]
        engine = correlator.last_engine
        delivered = engine.ranker.stats.delivered
        assert 0 < delivered < engine.total_ingested
        assert not engine._flushed
        # a slice boundary is a sample point
        assert delivered % correlator_module.PEAK_SAMPLE_EVERY == 0
        assert engine._until_sample == correlator_module.PEAK_SAMPLE_EVERY
        handed += finished
        assert engine._flushed
        assert engine.ranker.stats.delivered == engine.total_ingested
        result = engine.result()
        assert len(handed) == 60
        assert [id(cag) for cag in handed] == [id(cag) for cag in result.cags]

    def test_slices_equal_one_flush_field_for_field(self):
        sliced = Correlator(window=0.01).correlate(self.activities())
        engine = IncrementalEngine(window=0.01)
        engine.buffer(packed(self.activities()))
        engine.flush()
        assert sliced.total_activities > 3 * correlator_module.PEAK_SAMPLE_EVERY
        assert sliced.peak_state_entries > 0
        assert_results_equal(sliced, engine.result())

    def test_consumer_time_is_outside_the_correlation_clock(self):
        correlator = Correlator(window=0.01)
        nap = 0.05
        handed = 0
        for _cag in correlator.correlate_iter(self.activities(requests=6)):
            time.sleep(nap)
            handed += 1
        assert handed == 6
        assert correlator.last_engine.result().correlation_time < handed * nap / 2

    @pytest.mark.parametrize("collector_on", [True, False])
    def test_a_failing_consumer_leaves_the_collector_as_it_was(self, collector_on):
        was_enabled = gc.isenabled()
        (gc.enable if collector_on else gc.disable)()
        try:
            seen = []
            with pytest.raises(KeyError):
                for cag in Correlator(window=0.01).correlate_iter(self.activities()):
                    seen.append(gc.isenabled())
                    if len(seen) == 3:
                        raise KeyError("consumer bug")
            # between slices, and after the failure, the caller's state
            assert seen == [collector_on] * 3
            assert gc.isenabled() is collector_on
            # nothing of the abandoned run leaks into the next one
            again = Correlator(window=0.01).correlate(self.activities())
            reference = Correlator(window=0.01).correlate(self.activities())
            assert again.completed_requests == 60
            assert result_digest(again) == result_digest(reference)
            assert gc.isenabled() is collector_on
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_budget_prepass_decides_before_the_first_slice(self):
        """The per-second budget freezes its decisions from the whole
        trace; handing CAGs out mid-drain changes none of them."""
        sampling = SamplingSpec.budget(20)
        correlator = Correlator(window=0.01, sampling=sampling)
        handed = list(correlator.correlate_iter(self.activities()))
        consumed = correlator.last_engine.result()
        plain = Correlator(window=0.01, sampling=sampling).correlate(self.activities())
        assert 0 < len(handed) < 60
        assert plain.engine_stats.sampled_out_roots == 60 - len(handed)
        assert [id(cag) for cag in handed] == [id(cag) for cag in consumed.cags]
        assert_results_equal(consumed, plain)


class TestRunsDieByRefcount:
    """No reference cycle holds a finished run: with the collector off, a
    fully driven engine, its ranker and a finished CAG are freed at
    ``del``, and a collection afterwards finds nothing."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _drive(driver):
        trace = build_trace(requests=6, seg=700)
        engine = IncrementalEngine(window=0.01)
        if driver == "batch":
            engine.buffer(packed(trace.activities))
        else:
            ordered = sorted(trace.activities, key=sort_key)
            for start in range(0, len(ordered), 16):
                engine.ingest(packed(ordered[start : start + 16]))
        engine.flush()
        return engine

    @pytest.mark.parametrize("driver", ["batch", "streaming"])
    def test_engine_ranker_and_cag_are_freed_at_del(self, driver):
        engine = self._drive(driver)
        digest = result_digest(engine.result())
        assert len(engine.engine.finished_cags) == 6
        probes = [
            weakref.ref(engine),
            weakref.ref(engine.engine),
            weakref.ref(engine.ranker),
            weakref.ref(engine.engine.finished_cags[0]),
        ]
        del engine
        assert [probe() for probe in probes] == [None] * 4
        assert gc.collect() == 0
        reference = Correlator(window=0.01).correlate(
            build_trace(requests=6, seg=700).activities
        )
        assert digest == result_digest(reference)
