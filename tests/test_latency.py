"""Tests for latency extraction and percentage breakdowns."""

import pytest

from helpers import CagView, SyntheticTrace, edge_label, packed, reference_segments
from repro.pipeline import BackendSpec
from repro.core.interning import KeySpace
from repro.core.latency import (
    LatencyBreakdown,
    average_breakdown,
    average_duration,
    breakdown_for_cag,
    percentage_table,
)


@pytest.fixture()
def one_cag():
    trace = SyntheticTrace()
    trace.three_tier_request(request_id=1, start=1.0, db_queries=2, step=0.010)
    result = BackendSpec.batch(window=0.01).correlate(trace.activities)
    assert result.completed_requests == 1
    return result.cags[0]


class TestLatencyBreakdown:
    def test_add_and_total(self):
        breakdown = LatencyBreakdown()
        breakdown.add("a2a", 0.1)
        breakdown.add("a2b", 0.3)
        breakdown.add("a2a", 0.1)
        assert breakdown.total == pytest.approx(0.5)
        assert breakdown.segments["a2a"] == pytest.approx(0.2)

    def test_percentages_sum_to_100(self):
        breakdown = LatencyBreakdown({"x2x": 1.0, "x2y": 3.0})
        percentages = breakdown.percentages()
        assert sum(percentages.values()) == pytest.approx(100.0)
        assert percentages["x2y"] == pytest.approx(75.0)

    def test_empty_breakdown_has_zero_percentages(self):
        breakdown = LatencyBreakdown()
        assert breakdown.total == 0.0
        assert breakdown.percentage("anything") == 0.0
        assert breakdown.percentages() == {}

    def test_merge_and_scale(self):
        a = LatencyBreakdown({"s": 1.0})
        b = LatencyBreakdown({"s": 3.0, "t": 1.0})
        a.merge(b)
        scaled = a.scaled(0.5)
        assert scaled.segments["s"] == pytest.approx(2.0)
        assert scaled.segments["t"] == pytest.approx(0.5)

    def test_labels_sorted(self):
        breakdown = LatencyBreakdown({"b2b": 1.0, "a2a": 1.0})
        assert breakdown.labels() == ["a2a", "b2b"]


class TestSegmentLabels:
    def test_labels_use_program_names(self, one_cag):
        labels = set(breakdown_for_cag(one_cag).segments)
        assert labels == {edge_label(edge) for edge in CagView(one_cag).primary_path()}
        assert "httpd2httpd" in labels
        assert "httpd2java" in labels
        assert "java2mysqld" in labels
        assert "mysqld2java" in labels
        assert "java2httpd" in labels

    def test_breakdown_covers_end_to_end_latency(self, one_cag):
        breakdown = breakdown_for_cag(one_cag)
        # with a single chain and no clock skew, the segment sum equals the
        # BEGIN->END duration
        assert breakdown.total == pytest.approx(one_cag.duration(), rel=1e-6)

    def test_breakdown_segments_positive(self, one_cag):
        breakdown = breakdown_for_cag(one_cag)
        assert all(value >= 0 for value in breakdown.segments.values())

    def test_skew_cannot_produce_negative_segments(self):
        trace = SyntheticTrace(skews={"app": 0.5, "db": -0.5})
        trace.three_tier_request(request_id=1, start=1.0, db_queries=1)
        result = BackendSpec.batch(window=1.0).correlate(trace.activities)
        breakdown = breakdown_for_cag(result.cags[0])
        assert all(value >= 0 for value in breakdown.segments.values())

    def test_one_plan_serves_a_skewed_and_an_unskewed_request_of_its_shape(self):
        """The plan carries positions and labels only; the clamp and the
        sums are each request's own, float for float and label order too."""
        keys = KeySpace()  # both runs pack into it, so they share its plans
        cags = []
        for skews in ({}, {"app": 0.5, "db": -0.5}):
            trace = SyntheticTrace(skews=skews)
            trace.three_tier_request(request_id=1, start=1.0, db_queries=1)
            table = packed(trace.activities, keys)
            cags += BackendSpec.batch(window=1.0).correlate(table).cags
        plain, skewed = cags
        for cag in cags:
            assert list(breakdown_for_cag(cag).segments.items()) == list(
                reference_segments(cag).items()
            )
        assert len(keys.plans) == 1
        assert plain.analysis.plan is skewed.analysis.plan
        plan = plain.analysis.plan
        assert [plan.labels[slot] for _child, _parent, slot in plan.path] == [
            edge_label(edge) for edge in CagView(skewed).primary_path()
        ]
        assert breakdown_for_cag(skewed).segments["java2httpd"] == 0.0
        assert breakdown_for_cag(plain).segments["java2httpd"] > 0.0


class TestAverages:
    def make_cags(self, count=4):
        trace = SyntheticTrace()
        for index in range(count):
            trace.three_tier_request(request_id=index + 1, start=index * 1.0, db_queries=2)
        return BackendSpec.batch(window=0.01).correlate(trace.activities).cags

    def test_average_breakdown_of_identical_paths_matches_single(self):
        cags = self.make_cags(3)
        single = breakdown_for_cag(cags[0])
        average = average_breakdown(cags)
        for label, value in single.segments.items():
            assert average.segments[label] == pytest.approx(value, rel=1e-6)

    def test_average_breakdown_empty_list(self):
        assert average_breakdown([]).total == 0.0

    def test_average_duration(self):
        cags = self.make_cags(3)
        assert average_duration(cags) == pytest.approx(cags[0].duration(), rel=1e-6)
        assert average_duration([]) == 0.0

    def test_percentage_table_shape(self):
        cags = self.make_cags(2)
        table = percentage_table(
            {"run_a": average_breakdown(cags), "run_b": breakdown_for_cag(cags[0])}
        )
        assert set(table) == {"run_a", "run_b"}
        labels_a = set(table["run_a"])
        labels_b = set(table["run_b"])
        assert labels_a == labels_b  # union of labels applied to every series

    def test_percentage_table_respects_explicit_labels(self):
        cags = self.make_cags(1)
        table = percentage_table(
            {"run": breakdown_for_cag(cags[0])}, labels=["httpd2java", "nonexistent"]
        )
        assert set(table["run"]) == {"httpd2java", "nonexistent"}
        assert table["run"]["nonexistent"] == 0.0
