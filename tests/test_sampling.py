"""Tests for the request-sampling subsystem (repro.sampling).

The load-bearing test is the **sampled equivalence matrix**: every
scenario of the topology library, run through all three backends with
the same sampling policy, must admit the identical request subset and
produce byte-identical results -- asserted pairwise
(``verify_equivalence(sampling=...)``) and against the pinned golden
digests in ``tests/golden_sampling_digests.json``.

Regenerate the golden file after an *intentional* output change with::

    PYTHONPATH=src:tests python tests/test_sampling.py --regenerate

The rest covers the decision layer (spec validation, root-hash
determinism and subset nesting, the budget pre-pass, the adaptive
controller), the engine's tombstone bookkeeping, and the
``SamplingAccuracyStage``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.correlator import Correlator
from repro.core.engine import CorrelationEngine
from repro.core.interning import ActivityTable
from repro.pipeline import (
    BackendSpec,
    Pipeline,
    RunSource,
    SamplingAccuracyStage,
    SamplingSpec,
    canonical_cags,
    result_digest,
    verify_equivalence,
)
from repro.sampling import (
    AdaptiveController,
    precompute_decisions,
    root_key,
    root_position,
)
from repro.sampling.sampler import iter_roots
from repro.stream import ShardedCorrelator, StreamingCorrelator
from repro.topology.library import scenario_names
from helpers import packed
from test_pipeline import MATRIX_WINDOW, matrix_config

#: The pinned matrix policy -- change only together with --regenerate.
MATRIX_SAMPLING = SamplingSpec.uniform(0.5)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_sampling_digests.json"


@pytest.fixture(scope="session")
def matrix_sources():
    """One lazily-executed, memoised source per library scenario."""
    return {name: RunSource(config=matrix_config(name)) for name in scenario_names()}


# ---------------------------------------------------------------------------
# the sampled equivalence matrix: 5 scenarios x 3 backends, pinned
# ---------------------------------------------------------------------------


class TestSampledEquivalenceMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    def test_all_backends_sample_the_identical_subset(self, matrix_sources, name):
        report = verify_equivalence(
            matrix_sources[name], window=MATRIX_WINDOW, sampling=MATRIX_SAMPLING
        )
        assert {o.kind for o in report.outcomes} == {"batch", "streaming", "sharded"}
        assert report.equivalent, report.describe()
        golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
        assert report.digest == golden[name], (
            f"{name}: sampled pipeline output diverged from the pinned golden "
            "digest (if intentional, regenerate with "
            "`PYTHONPATH=src:tests python tests/test_sampling.py --regenerate`)"
        )

    def test_sampled_cags_are_a_subset_of_the_full_run(self, matrix_sources):
        source = matrix_sources["rubis"]
        full = BackendSpec.batch(window=MATRIX_WINDOW).correlate(source.activities())
        sampled = BackendSpec.batch(
            window=MATRIX_WINDOW, sampling=MATRIX_SAMPLING
        ).correlate(source.activities())
        full_shapes = set(map(repr, canonical_cags(full.cags)))
        sampled_shapes = set(map(repr, canonical_cags(sampled.cags)))
        # the sampler selects, never approximates: every sampled-in CAG is
        # byte-identical to its full-run counterpart
        assert sampled_shapes <= full_shapes
        assert len(sampled.cags) < len(full.cags)
        stats = sampled.engine_stats
        assert stats.sampled_out_roots > 0
        assert len(sampled.cags) + stats.sampled_out_finished == len(full.cags)

    def test_budget_policy_is_backend_independent(self, matrix_sources):
        source = matrix_sources["cache_aside"]
        spec = SamplingSpec.budget(5)
        report = verify_equivalence(
            source, window=MATRIX_WINDOW, sampling=spec
        ).require()
        assert report.digest is not None

    def test_adaptive_batch_matches_streaming(self, matrix_sources):
        # Both drivers correlate the identical candidate sequence and the
        # controller ticks on a candidate-count cadence, so with eviction
        # disabled the adaptive rate trajectories -- and the admitted
        # subsets -- coincide exactly.
        source = matrix_sources["rubis"]
        spec = SamplingSpec.adaptive(target_open_cags=5, interval=64, gain=0.8)
        batch = BackendSpec.batch(window=MATRIX_WINDOW, sampling=spec).correlate(
            source.activities()
        )
        streaming = BackendSpec.streaming(
            window=MATRIX_WINDOW, sampling=spec
        ).correlate(source.activities())
        assert result_digest(batch) == result_digest(streaming)

    def test_sampling_reduces_engine_state(self, matrix_sources):
        source = matrix_sources["rubis"]
        full = BackendSpec.batch(window=MATRIX_WINDOW).correlate(source.activities())
        sampled = BackendSpec.batch(
            window=MATRIX_WINDOW, sampling=SamplingSpec.uniform(0.1)
        ).correlate(source.activities())
        assert sampled.peak_state_entries < full.peak_state_entries


# ---------------------------------------------------------------------------
# the decision layer
# ---------------------------------------------------------------------------


class TestSamplingSpec:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            SamplingSpec(kind="coinflip")
        with pytest.raises(ValueError):
            SamplingSpec.uniform(0.0)
        with pytest.raises(ValueError):
            SamplingSpec.uniform(1.5)
        with pytest.raises(ValueError):
            SamplingSpec.budget(0)
        with pytest.raises(ValueError):
            SamplingSpec(kind="uniform", budget_per_second=10)
        with pytest.raises(ValueError):
            SamplingSpec(kind="budget")
        with pytest.raises(ValueError):
            SamplingSpec(kind="adaptive")  # no controller
        with pytest.raises(ValueError):
            SamplingSpec.adaptive(target_open_cags=0)
        with pytest.raises(ValueError):
            SamplingSpec.adaptive(target_open_cags=10, gain=0.0)
        with pytest.raises(ValueError):
            SamplingSpec.adaptive(target_open_cags=10, min_rate=0.9, max_rate=0.5)

    def test_describe_names_policy_and_knobs(self):
        assert SamplingSpec.uniform(0.25).describe() == "uniform (rate=0.25)"
        assert "budget=40/s" in SamplingSpec.budget(40).describe()
        adaptive = SamplingSpec.adaptive(target_open_cags=100).describe()
        assert "adaptive" in adaptive and "target_open_cags=100" in adaptive
        assert "salt=7" in SamplingSpec.uniform(0.5, salt=7).describe()

    def test_backend_spec_validation(self):
        with pytest.raises(ValueError, match="SamplingSpec"):
            BackendSpec.batch(sampling="0.5")
        with pytest.raises(ValueError, match="adaptive"):
            BackendSpec.sharded(
                sampling=SamplingSpec.adaptive(target_open_cags=10)
            )
        with pytest.raises(ValueError, match="adaptive"):
            ShardedCorrelator(sampling=SamplingSpec.adaptive(target_open_cags=10))
        described = BackendSpec.batch(sampling=SamplingSpec.uniform(0.5)).describe()
        assert "sampling=uniform (rate=0.5)" in described


class TestRootHash:
    def test_positions_are_deterministic_and_clone_stable(self, tiny_run):
        roots = iter_roots(tiny_run.activities())
        assert roots, "the run must contain BEGIN roots"
        for root in roots[:20]:
            position = root_position(root)
            assert 0.0 <= position < 1.0
            assert root_position(root) == position
            rebuilt = ActivityTable.from_activities([root]).activity(0)
            assert rebuilt is not root and root_position(rebuilt) == position

    def test_salt_rotates_the_subset(self, tiny_run):
        roots = iter_roots(tiny_run.activities())
        default = {root_key(r) for r in roots if root_position(r, 0) < 0.5}
        salted = {root_key(r) for r in roots if root_position(r, 1) < 0.5}
        assert default != salted

    def test_rates_nest_monotonically(self, tiny_run):
        """Everything sampled at a low rate is also sampled at any higher
        rate -- the property that makes rate sweeps comparable."""
        roots = iter_roots(tiny_run.activities())
        subsets = {
            rate: {
                root_key(r) for r in roots if root_position(r) < rate
            }
            for rate in (0.1, 0.3, 0.6, 1.0)
        }
        assert subsets[0.1] <= subsets[0.3] <= subsets[0.6] <= subsets[1.0]
        assert subsets[1.0] == {root_key(r) for r in roots}

    def test_realised_fraction_tracks_the_rate(self, tiny_run):
        roots = iter_roots(tiny_run.activities())
        admitted = sum(1 for r in roots if root_position(r) < 0.5)
        assert 0.3 <= admitted / len(roots) <= 0.7  # small-sample slack


class TestBudgetPolicy:
    def test_budget_caps_admitted_roots_per_second(self, tiny_run):
        spec = SamplingSpec.budget(3)
        decisions = precompute_decisions(tiny_run.activities(), spec)
        by_bucket = {}
        for _ctx, _msg, ts in decisions:
            bucket = int(math.floor(ts))
            by_bucket[bucket] = by_bucket.get(bucket, 0) + 1
        assert by_bucket, "budget must admit something"
        assert max(by_bucket.values()) <= 3

    def test_budget_admits_earliest_roots_first(self, tiny_run):
        spec = SamplingSpec.budget(2)
        roots = iter_roots(tiny_run.activities())
        decisions = precompute_decisions(tiny_run.activities(), spec)
        for bucket in {int(math.floor(r.timestamp)) for r in roots}:
            in_bucket = [r for r in roots if int(math.floor(r.timestamp)) == bucket]
            expected = {root_key(r) for r in in_bucket[:2]}
            admitted = {
                key for key in decisions if int(math.floor(key[2])) == bucket
            }
            assert admitted == expected

    def test_adaptive_decisions_cannot_be_precomputed(self, tiny_run):
        spec = SamplingSpec.adaptive(target_open_cags=10)
        with pytest.raises(ValueError, match="run time"):
            precompute_decisions(tiny_run.activities(), spec)
        # freeze() is the drivers' hook: per-root policies freeze nothing
        assert SamplingSpec.uniform(0.5).freeze(tiny_run.activities()) is None
        assert spec.freeze(tiny_run.activities()) is None

    def test_generous_budget_traces_everything(self, tiny_run):
        full = Correlator(window=0.01).correlate(tiny_run.activities())
        sampled = Correlator(
            window=0.01, sampling=SamplingSpec.budget(10_000)
        ).correlate(tiny_run.activities())
        assert result_digest(sampled) == result_digest(full)


class TestAdaptiveController:
    def test_rate_moves_toward_the_target_and_clamps(self):
        controller = AdaptiveController(
            target_open_cags=100, gain=1.0, min_rate=0.05, max_rate=1.0
        )
        assert controller.update(200, 1.0) == 0.5  # over budget: halve
        assert controller.update(50, 0.5) == 1.0  # under budget: grow, clamp
        assert controller.update(100_000, 1.0) == 0.05  # floor clamp
        assert controller.update(0, 0.5) == 1.0  # empty engine: grow to max

    def test_gain_damps_the_correction(self):
        controller = AdaptiveController(target_open_cags=100, gain=0.5)
        assert controller.update(400, 1.0) == pytest.approx(0.5)  # sqrt(1/4)

    def test_sampler_ticks_on_the_configured_cadence(self):
        spec = SamplingSpec.adaptive(target_open_cags=1, interval=10, gain=1.0)
        sampler = spec.make_sampler()
        for _ in range(9):
            sampler.tick(1000)
        assert sampler.current_rate == 1.0  # not yet
        sampler.tick(1000)
        assert sampler.current_rate < 1.0  # tick 10 fired
        assert sampler.stats.rate_updates == 1

    def test_overloaded_engine_sheds_requests(self, loaded_run):
        spec = SamplingSpec.adaptive(
            target_open_cags=4, interval=32, gain=1.0, min_rate=0.01
        )
        full = StreamingCorrelator(window=0.01).correlate(loaded_run.activities())
        shed = StreamingCorrelator(window=0.01, sampling=spec).correlate(
            loaded_run.activities()
        )
        stats = shed.engine_stats
        assert stats.sampled_out_roots > 0
        assert len(shed.cags) < len(full.cags)
        assert shed.peak_state_entries < full.peak_state_entries


# ---------------------------------------------------------------------------
# engine bookkeeping: tombstones are evicted, never leaked
# ---------------------------------------------------------------------------


class _RejectAll:
    """Duck-typed sampler that samples every request out."""

    is_adaptive = False

    def __init__(self):
        self.roots_seen = 0

    def admit(self, root):
        self.roots_seen += 1
        return False


class TestEngineTombstones:
    def test_rejected_requests_surface_nowhere(self, trace_builder):
        trace_builder.three_tier_request(request_id=1, start=0.5)
        trace_builder.three_tier_request(request_id=2, start=1.5)
        engine = CorrelationEngine(sampler=_RejectAll())
        from repro.core.ranker import Ranker

        ranker = Ranker(packed(trace_builder.by_node()), mmap=engine.mmap, window=0.01)
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            engine.process(candidate)
        assert engine.finished_cags == []
        assert engine.open_cags == []
        assert engine.evicted_cags == []
        assert engine.stats.sampled_out_roots == 2
        assert engine.stats.sampled_out_finished == 2
        assert engine.stats.finished_cags == 0
        # every piece of per-request state was purged at completion
        assert engine._owner == {}
        assert engine._backlog_size == 0
        assert len(engine.mmap) == 0
        assert len(engine.cmap) == 0  # context entries purged with the tombstone

    def test_full_and_sampled_runs_agree_on_the_admitted_subset(self, tiny_run):
        spec = SamplingSpec.uniform(0.4)
        full = Correlator(window=0.01).correlate(tiny_run.activities())
        sampled = Correlator(window=0.01, sampling=spec).correlate(
            tiny_run.activities()
        )
        decisions = precompute_decisions(tiny_run.activities(), spec)
        admitted_ids = {
            next(iter(cag.request_ids()))
            for cag in full.cags
            if root_key(cag.root) in decisions
        }
        assert {
            next(iter(cag.request_ids())) for cag in sampled.cags
        } == admitted_ids


class TestSamplingAccuracyStage:
    def test_stage_scores_a_sampled_session(self, tiny_run):
        session = Pipeline(
            source=tiny_run,
            backend=BackendSpec.batch(
                window=0.01, sampling=SamplingSpec.uniform(0.5)
            ),
            stages=[SamplingAccuracyStage()],
        ).run()
        fidelity = session.analyses["sampling_accuracy"]
        assert 0.0 < fidelity.sample_fraction < 1.0
        assert 0.0 <= fidelity.pattern_coverage <= 1.0
        assert fidelity.sampled_requests == session.request_count
        assert fidelity.full_requests == tiny_run.completed_requests
        summary = fidelity.summary()
        assert summary["sampled_requests"] == float(session.request_count)

    def test_unsampled_session_scores_perfect(self, tiny_run):
        session = Pipeline(
            source=tiny_run,
            backend=BackendSpec.batch(window=0.01),
            stages=[SamplingAccuracyStage()],
        ).run()
        fidelity = session.analyses["sampling_accuracy"]
        assert fidelity.sample_fraction == 1.0
        assert fidelity.pattern_coverage == 1.0
        assert fidelity.dominant_profile_distance == 0.0


def _regenerate_goldens() -> None:
    digests = {}
    for name in scenario_names():
        report = verify_equivalence(
            RunSource(config=matrix_config(name)),
            window=MATRIX_WINDOW,
            sampling=MATRIX_SAMPLING,
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
