"""Tests for CAG / trace export (DOT, JSON, summaries)."""

import json

import pytest

from helpers import SyntheticTrace
from repro.pipeline import BackendSpec
from repro.core.export import (
    cag_to_dict,
    cag_to_dot,
    cag_to_json,
    trace_summary,
    trace_summary_json,
)


@pytest.fixture()
def sample_cag():
    trace = SyntheticTrace()
    trace.three_tier_request(request_id=1, start=1.0, db_queries=1)
    result = BackendSpec.batch(window=0.01).correlate(trace.activities)
    return result.cags[0]


class TestDotExport:
    def test_dot_contains_every_vertex_and_edge(self, sample_cag):
        dot = cag_to_dot(sample_cag, title="request 1")
        assert dot.startswith("digraph")
        assert dot.count("[label=") == len(sample_cag)
        assert dot.count("->") == len(sample_cag.edge_positions())
        assert "request 1" in dot

    def test_dot_distinguishes_edge_kinds(self, sample_cag):
        dot = cag_to_dot(sample_cag)
        assert "style=solid" in dot  # context edges
        assert "style=dashed" in dot  # message edges

    def test_dot_mentions_components(self, sample_cag):
        dot = cag_to_dot(sample_cag)
        for program in ("httpd", "java", "mysqld"):
            assert program in dot


class TestJsonExport:
    def test_dict_structure(self, sample_cag):
        data = cag_to_dict(sample_cag)
        assert data["finished"] is True
        assert len(data["vertices"]) == len(sample_cag)
        assert len(data["edges"]) == len(sample_cag.edge_positions())
        assert data["duration"] == pytest.approx(sample_cag.duration())
        assert set(data["segment_percentages"]) == set(data["segments"])

    def test_edges_reference_valid_vertex_indices(self, sample_cag):
        data = cag_to_dict(sample_cag)
        count = len(data["vertices"])
        for edge in data["edges"]:
            assert 0 <= edge["parent"] < count
            assert 0 <= edge["child"] < count
            assert edge["kind"] in {"context", "message"}

    def test_json_round_trip(self, sample_cag):
        parsed = json.loads(cag_to_json(sample_cag))
        assert parsed["cag_id"] == sample_cag.cag_id


class TestTraceSummary:
    def test_summary_counts_match_trace(self, tiny_trace):
        summary = trace_summary(tiny_trace)
        assert summary["requests"] == tiny_trace.request_count
        assert summary["incomplete_paths"] == len(tiny_trace.incomplete_cags)
        assert summary["patterns"]
        assert summary["patterns"][0]["paths"] >= summary["patterns"][-1]["paths"]

    def test_summary_is_json_serialisable(self, tiny_trace):
        parsed = json.loads(trace_summary_json(tiny_trace))
        assert parsed["requests"] == tiny_trace.request_count

    def test_top_patterns_limit(self, tiny_trace):
        summary = trace_summary(tiny_trace, top_patterns=1)
        assert len(summary["patterns"]) == 1
