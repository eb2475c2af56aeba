"""Tests for the perf gate: ``benchmarks/e2e/run.py --compare``.

The comparison of two ``run.py --out`` documents is the one performance
gate CI applies (a same-runner A/B of the parent commit against the
change).  These tests feed it synthetic documents, so they run in
milliseconds and pin the verdicts, not the tracer:

* a metric worse than its ``BENCHMARK.json`` bound, in either direction
  of "better", is a regression and exits 1;
* a larger share of failed requests exits 1 even when every metric holds;
* repetitions spread wider than the bound read ``unresolved`` (exit 0)
  unless every new run beats every base run;
* documents that measured different things are refused with exit 2.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
METRICS = {metric["name"]: metric for metric in SPEC["end_to_end"]}


def _load_compare():
    spec = importlib.util.spec_from_file_location("e2e_compare", E2E / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_compare()


def _metric(value: float, spread: float = 0.01) -> dict:
    return {"value": value, "runs": [value * (1 - spread), value, value * (1 + spread)]}


def _document() -> dict:
    """A result document of every declared workload and end-to-end metric."""
    return {
        "format": "repro-e2e-bench/1",
        "stamp": {"kernel": "python", "traced": False, "quick": True},
        "workloads": {
            name: {
                "input_digest": f"sha256-of-{name}",
                "run_digest": f"rows-of-{name}",
                "attempted": 100,
                "failed": 0,
                "metrics": {
                    key: _metric(100.0 if key == "kact_per_s" else 10.0) for key in METRICS
                },
            }
            for name in WORKLOADS
        },
    }


def _scale(document: dict, workload: str, key: str, factor: float) -> dict:
    """A copy of ``document`` with one metric (value and runs) scaled."""
    changed = copy.deepcopy(document)
    metric = changed["workloads"][workload]["metrics"][key]
    metric["value"] *= factor
    metric["runs"] = [value * factor for value in metric["runs"]]
    return changed


def _gate(tmp_path, base: dict, new: dict, capsys):
    """Run the comparison; return (exit code, {(workload, metric): verdict}, captured)."""
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    new_path.write_text(json.dumps(new), encoding="utf-8")
    code = compare.compare_files(SPEC, str(base_path), str(new_path))
    captured = capsys.readouterr()
    verdicts = {}
    for line in captured.out.splitlines():
        fields = line.split()
        if len(fields) > 2 and fields[0] in WORKLOADS and fields[1] in METRICS:
            verdicts[fields[0], fields[1]] = fields[-1]
    return code, verdicts, captured


def test_a_document_compared_with_itself_is_clean(tmp_path, capsys):
    document = _document()
    code, verdicts, captured = _gate(tmp_path, document, document, capsys)
    assert code == 0
    assert len(verdicts) == len(WORKLOADS) * len(METRICS)
    assert set(verdicts.values()) == {"ok"}
    assert captured.out.splitlines()[-1] == "verdict: no regression"
    assert captured.err == ""


def test_halved_throughput_is_a_regression(tmp_path, capsys):
    # The gate is wired: a change twice as slow as the parent fails it.
    document = _document()
    code, verdicts, captured = _gate(
        tmp_path, document, _scale(document, "rubis_offline", "kact_per_s", 0.5), capsys
    )
    assert code == 1
    assert verdicts["rubis_offline", "kact_per_s"] == "regression"
    assert [key for key, verdict in verdicts.items() if verdict != "ok"] == [
        ("rubis_offline", "kact_per_s")
    ]
    assert captured.out.splitlines()[-1] == "verdict: REGRESSION"


def test_a_lower_is_better_metric_regresses_when_it_grows(tmp_path, capsys):
    bound = METRICS["peak_rss_mb"]["bound"]
    document = _document()
    grown = _scale(document, "fanout_stream", "peak_rss_mb", 1 + 2 * bound)
    code, verdicts, _captured = _gate(tmp_path, document, grown, capsys)
    assert code == 1
    assert verdicts["fanout_stream", "peak_rss_mb"] == "regression"


def test_a_move_inside_the_bound_is_ok(tmp_path, capsys):
    bound = METRICS["kact_per_s"]["bound"]
    document = _document()
    slower = _scale(document, "noisy_offline", "kact_per_s", 1 - bound / 2)
    code, verdicts, _captured = _gate(tmp_path, document, slower, capsys)
    assert code == 0
    assert verdicts["noisy_offline", "kact_per_s"] == "ok"


def test_an_improvement_is_never_a_regression(tmp_path, capsys):
    document = _document()
    better = _scale(document, "rubis_live", "kact_per_s", 2.0)
    better = _scale(better, "rubis_live", "emit_lag_p95_ms", 0.5)
    code, verdicts, _captured = _gate(tmp_path, document, better, capsys)
    assert code == 0
    assert verdicts["rubis_live", "kact_per_s"] == "ok"
    assert verdicts["rubis_live", "emit_lag_p95_ms"] == "ok"


def test_a_wide_spread_reads_unresolved_without_failing(tmp_path, capsys):
    document = _document()
    noisy = copy.deepcopy(document)
    noisy["workloads"]["rubis_offline"]["metrics"]["cpu_us_per_line"] = _metric(10.0, 0.4)
    code, verdicts, captured = _gate(tmp_path, document, noisy, capsys)
    assert code == 0
    assert verdicts["rubis_offline", "cpu_us_per_line"] == "unresolved"
    assert captured.out.splitlines()[-1] == "verdict: no regression"


def test_a_wide_spread_is_resolved_when_every_new_run_beats_every_base_run(
    tmp_path, capsys
):
    document = _document()
    document["workloads"]["rubis_offline"]["metrics"]["kact_per_s"] = {
        "value": 100.0, "runs": [60.0, 100.0, 140.0],
    }
    faster = copy.deepcopy(document)
    faster["workloads"]["rubis_offline"]["metrics"]["kact_per_s"] = {
        "value": 160.0, "runs": [150.0, 160.0, 170.0],
    }
    code, verdicts, _captured = _gate(tmp_path, document, faster, capsys)
    assert code == 0
    assert verdicts["rubis_offline", "kact_per_s"] == "ok"


def test_spread_is_the_interquartile_distance_over_the_median():
    assert compare._spread([5.0]) == 0.0
    assert compare._spread([]) == 0.0
    assert compare._spread([60.0, 100.0, 140.0]) == pytest.approx(0.8)
    assert compare._spread([10.0, 10.0, 10.0]) == 0.0


def test_a_larger_share_of_failed_requests_fails_the_gate(tmp_path, capsys):
    document = _document()
    failing = copy.deepcopy(document)
    failing["workloads"]["fanout_stream"]["failed"] = 1
    code, verdicts, captured = _gate(tmp_path, document, failing, capsys)
    assert code == 1
    assert set(verdicts.values()) == {"ok"}  # no metric moved
    assert "fanout_stream  failed 0/100 -> 1/100" in captured.out
    assert captured.out.splitlines()[-1] == "verdict: REGRESSION"


def test_fewer_failed_requests_pass(tmp_path, capsys):
    document = _document()
    document["workloads"]["rubis_live"]["failed"] = 2
    fewer = copy.deepcopy(document)
    fewer["workloads"]["rubis_live"]["failed"] = 1
    code, _verdicts, _captured = _gate(tmp_path, document, fewer, capsys)
    assert code == 0


def test_a_different_run_digest_is_reported(tmp_path, capsys):
    document = _document()
    other = copy.deepcopy(document)
    other["workloads"]["noisy_offline"]["run_digest"] = "other rows"
    code, _verdicts, captured = _gate(tmp_path, document, other, capsys)
    assert code == 0
    assert "stored rows: DIFFERENT digest" in captured.out
    assert captured.out.count("stored rows: same digest") == len(WORKLOADS) - 1


def _other_kernel(document):
    document["stamp"]["kernel"] = "native"


def _traced(document):
    document["stamp"]["traced"] = True


def _fewer_workloads(document):
    del document["workloads"]["rubis_live"]


def _other_input(document):
    document["workloads"]["noisy_offline"]["input_digest"] = "another seed"


def _fewer_metrics(document):
    del document["workloads"]["fanout_stream"]["metrics"]["setup_s"]


@pytest.mark.parametrize(
    "change, reason",
    [
        (_other_kernel, "kernel python vs native"),
        (_traced, "traced runs carry per-layer numbers"),
        (_fewer_workloads, "different workloads"),
        (_other_input, "noisy_offline: input digests differ"),
        (_fewer_metrics, "fanout_stream: metric sets differ"),
    ],
    ids=lambda value: value.__name__.lstrip("_") if callable(value) else None,
)
def test_documents_that_measured_different_things_are_refused(
    change, reason, tmp_path, capsys
):
    document = _document()
    other = copy.deepcopy(document)
    change(other)
    code, verdicts, captured = _gate(tmp_path, document, other, capsys)
    assert code == 2
    assert captured.out == "" and verdicts == {}
    assert captured.err.startswith("not comparable: ")
    assert reason in captured.err


def test_run_py_compare_is_the_entry_point(tmp_path):
    # run.py --compare reads BENCHMARK.json itself and needs no tracer.
    document = _document()
    base, perturbed = tmp_path / "base.json", tmp_path / "perturbed.json"
    base.write_text(json.dumps(document), encoding="utf-8")
    perturbed.write_text(
        json.dumps(_scale(document, "rubis_offline", "kact_per_s", 0.5)), encoding="utf-8"
    )

    def run(*paths):
        return subprocess.run(
            [sys.executable, str(E2E / "run.py"), "--compare", *map(str, paths)],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )

    same = run(base, base)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines()[-1] == "verdict: no regression"
    worse = run(base, perturbed)
    assert worse.returncode == 1, worse.stderr
    assert worse.stdout.splitlines()[-1] == "verdict: REGRESSION"
