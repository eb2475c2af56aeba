"""Set-up, repetitions in fresh worker processes, and aggregation.

``measure`` is what one benchmark invocation does for one workload: make
the inputs from the seed (several times, so set-up time has a median), run
repetitions until the requested measuring time is used, and reduce them to
the metrics named in ``BENCHMARK.json``.  Offline workloads are a closed
loop -- one job at a time, as the CLI runs -- and the live workload is an
open loop driven by ``writer.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from stats import percentile
from workloads import LIVE_BATCH, LIVE_LAG_LIMIT_S, LIVE_RATE, Workload, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per untraced invocation; the median is ``setup_s``.
SETUPS = 3
#: Fewest untraced repetitions whatever ``--seconds`` says.
MIN_REPETITIONS = {"batch": 3, "stream": 3, "live": 5}
#: Head start the live writer and worker get to import and open files.
LIVE_START_DELAY_S = 1.2
#: How long past the writer's schedule a live worker may run before it
#: gives up (a tracer that cannot keep up must fail, not hang).
LIVE_DRAIN_ALLOWANCE_S = 20.0
WORKER_TIMEOUT_S = 150.0


def _env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def _run_worker(job: dict, jobfile: Path, **env: str) -> Optional[dict]:
    """Run one worker; ``None`` when it raised, hung or printed no result."""
    jobfile.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(jobfile)],
            capture_output=True,
            text=True,
            env=_env(**env),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  worker timed out after {WORKER_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        print(f"  worker failed: {last[0]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repetition(meta: dict, indir: Path, index: int, traced: bool, rate: float):
    """One repetition -> (worker result or None, writer report or None)."""
    job = {
        "mode": "run",
        "meta": str(indir / "meta.json"),
        "traced": traced,
        "store": str(indir / f"store-{index}.sqlite"),
        "summary": str(indir / f"summary-{index}.json"),
        "spans": str(indir / "spans.jsonl"),
    }
    writer_report = None
    try:
        if meta["kind"] != "live":
            return _run_worker(job, indir / "job.json"), None
        tail = indir / "live.log"
        tail.unlink(missing_ok=True)
        t0 = time.monotonic() + LIVE_START_DELAY_S
        job.update(
            tail=str(tail),
            t0=t0,
            rate=rate,
            lag_limit_s=LIVE_LAG_LIMIT_S,
            deadline=t0 + meta["lines"] / rate + LIVE_DRAIN_ALLOWANCE_S,
        )
        writer = subprocess.Popen(
            [sys.executable, str(HERE / "writer.py"), meta["logs"][0], str(tail),
             repr(rate), str(LIVE_BATCH), repr(t0)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            out = _run_worker(job, indir / "job.json")
            if out is None:
                writer.kill()
            stdout, _ = writer.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait()
        if out is None or writer.returncode != 0:
            return None, None
        writer_report = json.loads(stdout.strip().splitlines()[-1])
        # Open loop: the tracer must have drained the log soon after the
        # writer's last append, or the whole replay is a failure.
        behind = out["drained"] - writer_report["done"]
        if out["lines_seen"] < meta["lines"] or behind > LIVE_LAG_LIMIT_S:
            print(
                f"  backlog when the writer finished: read {out['lines_seen']} of "
                f"{meta['lines']} lines, {behind * 1e3:.0f} ms behind",
                file=sys.stderr,
            )
            out["failed"] = out["requests"]
        return out, writer_report
    finally:
        for key in ("store", "summary"):
            Path(job[key]).unlink(missing_ok=True)


def set_up(workload: Workload, seed: int, quick: bool, indir: Path, times: int):
    """Generate the inputs ``times`` times -> (meta, seconds of each)."""
    seconds: List[float] = []
    meta = None
    for _ in range(times):
        shutil.rmtree(indir, ignore_errors=True)
        start = perf_counter()
        meta = generate(workload, seed, quick, indir)
        seconds.append(perf_counter() - start)
    return meta, seconds


def run_repetitions(
    meta: dict, indir: Path, seconds: float, traced: bool, rate: float = LIVE_RATE
) -> dict:
    """Repeat the workload for ``seconds`` and reduce to named metrics.

    Untraced: the end-to-end metrics.  Traced: every untraced repetition
    is followed by one under spans, and the per-layer metrics come out.
    """
    kind = meta["kind"]
    fewest = 1 if traced else MIN_REPETITIONS[kind]
    plain, spanned, writers = [], [], []
    index = 0
    started = perf_counter()
    while len(plain) < fewest or perf_counter() - started < seconds:
        for under_spans in (False, True) if traced else (False,):
            out, writer_report = _repetition(meta, indir, index, under_spans, rate)
            (spanned if under_spans else plain).append(out)
            if writer_report is not None:
                writers.append(writer_report)
            index += 1

    outs = plain + spanned
    done = [out for out in outs if out is not None]
    good = [out for out in plain if out is not None]
    if not good or (traced and not any(out is not None for out in spanned)):
        raise SystemExit(f"{meta['workload']}: no repetition produced a result")
    for out in good:
        # Nothing reached the store: the operator waited the whole job.
        out["lags_s"] = out["lags_s"] or [out["wall_s"]]
    # A repetition that raised, or stored something else than the others,
    # fails all its requests.
    agreed = Counter(out["run_digest"] for out in done).most_common(1)[0][0]
    failed = sum(
        meta["requests"] if out is None or out["run_digest"] != agreed else out["failed"]
        for out in outs
    )
    result = {
        "workload": meta["workload"],
        "seed": meta["seed"],
        "lines": meta["lines"],
        "requests": meta["requests"],
        "input_digest": meta["input_digest"],
        "kernel": good[0]["kernel"],
        "run_digest": agreed,
        "repetitions": len(outs),
        "attempted": meta["requests"] * len(outs),
        "failed": failed,
        "hygiene": {"rss_before_mb": max(out["rss_before_mb"] for out in done)},
    }
    if writers:
        result["hygiene"]["writer_late_p99_ms"] = max(w["late_p99_ms"] for w in writers)
        result["hygiene"]["writer_late_max_ms"] = max(w["late_max_ms"] for w in writers)
    if traced:
        result["metrics"] = _layer_metrics(meta, indir, good, [o for o in spanned if o])
    else:
        result["hygiene"]["lag_samples"] = min(len(out["lags_s"]) for out in good)
        runs = {
            "kact_per_s": [meta["lines"] / out["wall_s"] / 1e3 for out in good],
            "peak_rss_mb": [out["peak_rss_mb"] for out in good],
            "emit_lag_p50_ms": [percentile(out["lags_s"], 50) * 1e3 for out in good],
            "emit_lag_p95_ms": [percentile(out["lags_s"], 95) * 1e3 for out in good],
            "cpu_us_per_line": [out["cpu_s"] / meta["lines"] * 1e6 for out in good],
        }
        # The best repetition, not the median one: what disturbs a
        # repetition on a shared machine only ever makes it slower, in
        # bursts shorter than a repetition, so the best of several repeats
        # far better than their middle (README, "Noise floor").
        result["metrics"] = {
            name: {"value": max(values) if name == "kact_per_s" else min(values),
                   "runs": values}
            for name, values in runs.items()
        }
    return result


def _layer_metrics(meta: dict, indir: Path, plain: list, spanned: list) -> dict:
    names = sorted({name for out in spanned for name in out["layers"]})
    metrics = {
        name: median(out["layers"].get(name, 0.0) for out in spanned) for name in names
    }
    # The tail beyond p95, from the untraced repetitions pooled.  It is one
    # or two collector stalls long and does not repeat well enough to be
    # an end-to-end metric with a bound; here it can be read next to
    # gc.gen2_max_ms, which sets it.
    lags = [lag * 1e3 for out in plain for lag in out["lags_s"]]
    metrics["e2e.emit_lag_p99_ms"] = percentile(lags, 99)
    metrics["e2e.emit_lag_max_ms"] = max(lags)
    metrics["store.rows"] = median(out["store_rows"] for out in spanned)
    metrics["store.db_bytes"] = median(out["store_bytes"] for out in spanned)
    # What the spans do not cover.  Offline: wall of the untraced
    # ``Pipeline.run`` minus the stage spans.  Live: the worker mostly
    # sleeps, so CPU time stands in for wall on both sides.
    clock = "cpu_s" if meta["kind"] == "live" else "wall_s"
    untraced = median(out[clock] for out in plain)
    stages = median(out["stages_s"] for out in spanned)
    metrics["pipeline.facade.glue_s"] = untraced - stages
    metrics["trace.overhead_share"] = median(out[clock] for out in spanned) / untraced - 1.0
    if meta["workload"] == "rubis_offline":
        # Every backend and both kernels in one document: the same
        # correlate call through the sharded driver, and through the batch
        # driver on the reference kernel.
        job = {"mode": "correlate_only", "meta": str(indir / "meta.json")}
        sharded = _run_worker({**job, "backend": "sharded"}, indir / "job.json")
        python = _run_worker(
            {**job, "backend": "batch"}, indir / "job.json", REPRO_KERNEL="python"
        )
        if sharded is not None and sharded["failed"] == 0:
            metrics["stream.sharded.correlate_s"] = sharded["correlate_s"]
        if python is not None and python["failed"] == 0:
            metrics["core.kernel.python_batch_s"] = python["correlate_s"]
    return {name: {"value": value} for name, value in metrics.items()}


def measure(
    workload: Workload, seed: int, seconds: float, traced: bool, quick: bool, workdir: Path
) -> dict:
    """One benchmark invocation for one workload."""
    indir = workdir / f"{workload.name}-{seed}"
    meta, setups = set_up(workload, seed, quick, indir, 1 if traced else SETUPS)
    result = run_repetitions(meta, indir, seconds, traced)
    if not traced:
        result["metrics"]["setup_s"] = {"value": median(setups), "runs": setups}
    # The inputs are tens of megabytes per run; the spans and the
    # description of what was run are what is worth keeping.
    for path in indir.iterdir():
        if path.name not in ("spans.jsonl", "meta.json"):
            path.unlink()
    return result
