"""Smoke test of the repo benchmark at ``--quick`` scale.

Collected by the tier-1 run but marked ``slow`` by ``benchmarks/conftest.py``
(run it with ``pytest benchmarks/e2e -m slow``).  It checks the benchmark,
not the tracer: that every declared workload and metric comes out and
nothing undeclared does, that spans nest, and that the checker bites.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SEED = 5


def _run(tmp_path, trace: int) -> dict:
    """Run every workload through the declared command; return the document."""
    out = tmp_path / f"result-{trace}.json"
    proc = subprocess.run(
        SPEC["command"]
        + ["--quick", "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(WORKLOADS)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {metric["name"] for metric in declared}
        for metric in declared:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    document = json.loads(out.read_text())
    assert list(document["workloads"]) == WORKLOADS
    return document


def test_end_to_end_metrics_match_the_declaration(tmp_path):
    document = _run(tmp_path, trace=0)
    for result in document["workloads"].values():
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    live = document["workloads"]["rubis_live"]["hygiene"]
    assert {"writer_late_p99_ms", "rss_before_mb"} <= set(live)
    # The same document compared with itself is clean.
    path = tmp_path / "result-0.json"
    proc = subprocess.run(
        SPEC["command"] + ["--compare", str(path), str(path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "regression" not in proc.stdout.replace("no regression", "")


def test_per_layer_metrics_match_the_declaration_and_spans_nest(tmp_path):
    document = _run(tmp_path, trace=1)
    produced = set()
    for result in document["workloads"].values():
        produced |= set(result["metrics"])
    # Every declared layer metric is produced by some workload, and (the
    # command would have refused otherwise) nothing undeclared is.
    assert produced == {metric["name"] for metric in SPEC["per_layer"]}

    for name in WORKLOADS:
        path = ROOT / ".bench_work" / f"{name}-{SEED}" / "spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        children = {}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                children.setdefault(span["parent"], []).append(span)
        # Siblings do not overlap, so self time (duration minus children)
        # is never negative and self times add up to the root's duration.
        self_total = 0.0
        root = next(span for span in spans if span["name"] == "e2e")
        for span in spans:
            inside = children.get(span["id"], [])
            for earlier, later in zip(inside, inside[1:]):
                assert earlier["end"] <= later["start"]
            own = (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in inside)
            assert own >= 0
            if span is root or span["parent"] is not None:
                self_total += own
        assert self_total == pytest.approx(root["end"] - root["start"], rel=1e-6)


@pytest.fixture
def harness_modules():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import harness
        import workloads

        yield harness, workloads
    finally:
        del sys.path[:2]


def test_checker_bites_on_a_missing_node_log(tmp_path, harness_modules):
    harness, workloads = harness_modules
    indir = tmp_path / "inputs"
    meta, _seconds = harness.set_up(workloads.WORKLOADS["rubis_offline"], SEED, True, indir, 1)
    Path(meta["logs"][-1]).unlink()
    result = harness.run_repetitions(meta, indir, seconds=0.0, traced=False)
    assert result["failed"] > 0
    assert result["attempted"] == meta["requests"] * result["repetitions"]


def test_checker_bites_on_a_backlog(tmp_path, harness_modules, monkeypatch):
    harness, workloads = harness_modules
    indir = tmp_path / "inputs"
    # The offline-sized trace and a quarter of the lag limit: the live trace
    # is a second of work, which even a tracer handed everything at once
    # finishes inside the limit.
    monkeypatch.setattr(harness, "LIVE_LAG_LIMIT_S", 0.5)
    workload = dataclasses.replace(
        workloads.WORKLOADS["rubis_live"],
        runtime_s=workloads.WORKLOADS["rubis_offline"].runtime_s,
        lines=workloads.WORKLOADS["rubis_offline"].lines,
    )
    meta, _seconds = harness.set_up(workload, SEED, False, indir, 1)
    # Far above what the tracer sustains: the writer is done long before
    # the tail is drained.
    result = harness.run_repetitions(meta, indir, seconds=0.0, traced=False, rate=1e6)
    assert result["failed"] == result["attempted"] > 0
