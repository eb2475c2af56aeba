"""Tests for causal-path pattern classification."""

import pickle
import sys
import threading

import pytest

from helpers import SyntheticTrace, cyclic_cag, reference_segments, reference_signature
from repro.core import patterns as patterns_mod
from repro.core import shapes as shapes_mod
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.correlator import Correlator
from repro.core.interning import INTERNER
from repro.core.latency import breakdown_for_cag
from repro.core.patterns import PatternClassifier, cag_signature, classify, dominant_pattern
from repro.fuzz.harness import run_generated_scenario
from repro.pipeline import BackendSpec
from repro.topology import DEFAULT_LIMITS
from repro.topology.generator import generate_scenario
from repro.topology.library import run_scenario, scenario_names


def make_cags(query_counts):
    trace = SyntheticTrace()
    for index, queries in enumerate(query_counts):
        trace.three_tier_request(
            request_id=index + 1,
            start=index * 1.0,
            db_queries=queries,
            web_pid=100 + index % 5,   # different workers every time
            app_tid=200 + index % 7,
            db_tid=300 + index % 7,
        )
    result = Correlator(window=0.01).correlate(trace.activities)
    assert result.completed_requests == len(query_counts)
    return result.cags


class TestSignature:
    def test_same_shape_same_signature_despite_different_workers(self):
        cags = make_cags([2, 2])
        assert cag_signature(cags[0]) == cag_signature(cags[1])

    def test_different_query_count_changes_signature(self):
        cags = make_cags([1, 3])
        assert cag_signature(cags[0]) != cag_signature(cags[1])

    def test_signature_contains_component_info_not_pids(self):
        cags = make_cags([1])
        vertex_sigs, _ = cag_signature(cags[0])
        for type_name, hostname, program in vertex_sigs:
            assert isinstance(type_name, str)
            assert program in {"httpd", "java", "mysqld"}


class TestClassification:
    def test_groups_by_shape(self):
        cags = make_cags([2, 2, 2, 1, 1, 3])
        patterns = classify(cags)
        assert len(patterns) == 3
        assert patterns[0].count == 3  # most frequent first
        assert sum(p.count for p in patterns) == 6

    def test_dominant_pattern(self):
        cags = make_cags([2, 2, 1])
        dominant = dominant_pattern(cags)
        assert dominant is not None
        assert dominant.count == 2

    def test_dominant_pattern_of_empty_is_none(self):
        assert dominant_pattern([]) is None

    def test_pattern_components_and_length(self):
        cags = make_cags([2])
        pattern = classify(cags)[0]
        components = {program for _host, program in pattern.components()}
        assert components == {"httpd", "java", "mysqld"}
        assert pattern.length == len(cags[0])

    def test_pattern_average_path_and_latency(self):
        cags = make_cags([2, 2])
        pattern = classify(cags)[0]
        average = pattern.average_path()
        assert average.total > 0
        assert pattern.average_latency() == pytest.approx(cags[0].duration(), rel=1e-6)

    def test_describe_mentions_count(self):
        cags = make_cags([1, 1])
        text = classify(cags)[0].describe()
        assert "2 paths" in text

    def test_classifier_incremental_add(self):
        cags = make_cags([1, 2])
        classifier = PatternClassifier()
        classifier.add(cags[0])
        assert len(classifier) == 1
        classifier.add(cags[1])
        assert len(classifier) == 2
        assert classifier.most_frequent() is not None


# ---------------------------------------------------------------------------
# shape plans: compiled once per shape, equal to the per-CAG reference
# ---------------------------------------------------------------------------


def assert_matches_reference(cag):
    """Plan-derived signature and segments are what this CAG derives on
    its own -- the signature the one interned object, the segments label
    for label and float for float."""
    expected = reference_signature(cag)
    signature = cag_signature(cag)
    assert signature == expected
    assert signature is patterns_mod._INTERNED[expected]
    assert list(breakdown_for_cag(cag).segments.items()) == list(
        reference_segments(cag).items()
    )


def generated_cags(seed):
    scenario = generate_scenario(seed, DEFAULT_LIMITS)
    run = run_generated_scenario(seed, scenario)
    return BackendSpec.batch().correlate(run.activities()).cags


def vertex(kind, timestamp, host, program, tid):
    return Activity(
        type=kind,
        timestamp=timestamp,
        context=ContextId(host, program, 1, tid),
        message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
    )


def uneven_fanout(first_reply_at, second_send_at):
    """A frontend calls two threads of one worker component; the first
    replies, the second calls on to a database.  The first thread's reply
    and the second thread's onward SEND share the fingerprint (SEND,
    worker, java) and are ready together, so only their timestamps order
    them -- and what hangs off each differs, so the order shows in the
    signature."""
    begin = vertex(ActivityType.BEGIN, 1.0, "web", "httpd", 1)
    call_1 = vertex(ActivityType.SEND, 1.1, "web", "httpd", 1)
    call_2 = vertex(ActivityType.SEND, 1.2, "web", "httpd", 1)
    serve_1 = vertex(ActivityType.RECEIVE, 1.3, "worker", "java", 11)
    serve_2 = vertex(ActivityType.RECEIVE, 1.4, "worker", "java", 12)
    reply_1 = vertex(ActivityType.SEND, first_reply_at, "worker", "java", 11)
    query_2 = vertex(ActivityType.SEND, second_send_at, "worker", "java", 12)
    joined = vertex(ActivityType.RECEIVE, 3.0, "web", "httpd", 1)
    stored = vertex(ActivityType.RECEIVE, 3.1, "zdb", "mysqld", 21)
    cag = CAG(root=begin)
    cag.append(call_1, begin, CONTEXT_EDGE)
    cag.append(call_2, call_1, CONTEXT_EDGE)
    cag.append(serve_1, call_1, MESSAGE_EDGE)
    cag.append(serve_2, call_2, MESSAGE_EDGE)
    cag.append(reply_1, serve_1, CONTEXT_EDGE)
    cag.append(query_2, serve_2, CONTEXT_EDGE)
    cag.append(joined, reply_1, MESSAGE_EDGE)
    cag.add_edge(call_2, joined, CONTEXT_EDGE)
    cag.append(stored, query_2, MESSAGE_EDGE)
    return cag


def spliced_chain():
    """``late`` is appended after ``send`` but spliced in before it, so
    the insertion order is not a topological order."""
    begin = vertex(ActivityType.BEGIN, 1.0, "web", "httpd", 1)
    send = vertex(ActivityType.SEND, 1.3, "web", "httpd", 1)
    upstream = vertex(ActivityType.SEND, 1.05, "app", "java", 2)
    late = vertex(ActivityType.RECEIVE, 1.1, "web", "httpd", 1)
    cag = CAG(root=begin)
    cag.append(send, begin, CONTEXT_EDGE)
    cag.append(upstream, begin, MESSAGE_EDGE)
    cag.append(late, upstream, MESSAGE_EDGE)
    cag.splice_context_vertex(begin, send, late)
    return cag


@pytest.mark.usefixtures("fresh_shape_table")
class TestShapePlansEqualTheReference:
    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_library_scenarios(self, scenario):
        cags = BackendSpec.batch().correlate(run_scenario(scenario, seed=5).activities()).cags
        assert len(cags) > 20
        for cag in cags:
            assert_matches_reference(cag)
        assert len(shapes_mod._PLANS) < len(cags)

    @pytest.mark.parametrize("seed", [17, 24, 63, 90, 119])
    def test_pinned_fuzz_seeds(self, seed):
        cags = generated_cags(seed)
        assert cags
        for cag in cags:
            assert_matches_reference(cag)

    def test_same_fingerprint_branches_are_derived_per_cag(self):
        """Both arrival interleavings of one shape: the plan may not
        answer for either, and each canonicalises by its own timestamps."""
        reply_first = uneven_fanout(first_reply_at=2.0, second_send_at=2.5)
        query_first = uneven_fanout(first_reply_at=2.5, second_send_at=2.0)
        assert_matches_reference(reply_first)
        assert_matches_reference(query_first)
        plan = reply_first.analysis.plan
        assert plan is query_first.analysis.plan
        assert plan.timestamp_decided and plan.signature is None
        assert cag_signature(reply_first) != cag_signature(query_first)
        # Same interleaving again: derived again, interned to the same object.
        again = uneven_fanout(first_reply_at=2.0, second_send_at=2.5)
        assert cag_signature(again) is cag_signature(reply_first)
        classifier = PatternClassifier()
        classifier.add_all([reply_first, query_first, again])
        assert classifier.shape_counts() == {
            "shapes": 1,
            "plan_hits": 0,
            "timestamp_decided": 3,
            "table_full": 0,
        }

    def test_spliced_cag_whose_insertion_order_is_not_topological(self):
        first, second = spliced_chain(), spliced_chain()
        assert_matches_reference(first)
        assert_matches_reference(second)
        plan = first.analysis.plan
        assert plan is second.analysis.plan and not plan.timestamp_decided
        assert cag_signature(second) is plan.signature

    def test_cyclic_cag_raises_every_time_and_leaves_no_signature(self):
        for cag in (cyclic_cag(), cyclic_cag()):
            assert cag.is_deformed()
            with pytest.raises(CAGError, match="cycle"):
                cag_signature(cag)
            assert cag.analysis.signature is None
            plan = cag.analysis.plan
            assert plan.signature is None and not plan.timestamp_decided
            # The primary path needs no causal order, so the breakdown stands.
            assert breakdown_for_cag(cag).segments == reference_segments(cag)

    def test_full_table_derives_new_shapes_per_cag(self, monkeypatch):
        known = make_cags([2])[0]
        assert_matches_reference(known)
        monkeypatch.setattr(shapes_mod, "MAX_SHAPES", len(shapes_mod._PLANS))
        unseen, unseen_again, known_again = make_cags([3, 3, 2])
        for cag in (unseen, unseen_again, known_again):
            assert_matches_reference(cag)
        assert unseen.analysis.plan is None and unseen_again.analysis.plan is None
        assert cag_signature(unseen) is cag_signature(unseen_again)
        assert known_again.analysis.plan is known.analysis.plan
        assert len(shapes_mod._PLANS) == shapes_mod.MAX_SHAPES
        classifier = PatternClassifier()
        classifier.add_all([known, unseen, unseen_again, known_again])
        assert classifier.shape_counts() == {
            "shapes": 1,
            "plan_hits": 1,
            "timestamp_decided": 0,
            "table_full": 2,
        }

    def test_plans_survive_an_interner_install(self):
        before = make_cags([2])[0]
        assert_matches_reference(before)
        snapshot = INTERNER.snapshot()
        snapshot["contexts"].append(("web", "httpd", 424242, 424242))
        snapshot["contexts"].append(("elsewhere", "installed-only", 1, 1))
        INTERNER.install(snapshot)
        after = make_cags([2])[0]
        assert_matches_reference(after)
        assert after.analysis.plan is before.analysis.plan
        assert cag_signature(after) is cag_signature(before)

    def test_threads_racing_on_one_table_agree(self, fresh_shape_table):
        """The table is touched with ``get`` / ``setdefault`` only and racing
        fills store equal values: more threads than cores, each analysing
        its own copies of the same requests, must end with one plan per
        shape and the one interned signature per request."""
        cags = make_cags([1, 2, 3, 1, 2, 3, 2, 2])
        expected = [reference_signature(cag) for cag in cags]
        copies = [pickle.loads(pickle.dumps(cags)) for _ in range(8)]
        barrier = threading.Barrier(len(copies))
        results = [None] * len(copies)

        def analyse(slot):
            barrier.wait(timeout=30)
            results[slot] = [
                (cag_signature(cag), list(breakdown_for_cag(cag).segments.items()))
                for cag in copies[slot]
            ]

        threads = [threading.Thread(target=analyse, args=(slot,)) for slot in range(len(copies))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(fresh_shape_table) == 3
        for result in results:
            assert [signature for signature, _segments in result] == expected
            for (signature, segments), (first, first_segments) in zip(result, results[0]):
                assert signature is first and segments == first_segments
