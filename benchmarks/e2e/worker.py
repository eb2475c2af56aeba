"""One measured repetition, in a process that holds nothing but file paths.

The harness starts a fresh worker for every repetition: the simulation, the
log lines and the ground truth all live elsewhere until the measurement is
over, because gen-2 collection cost scales with the heap and would
otherwise be the harness's, not the tracer's.  The worker drives the tracer
from outside through public names of ``repro.pipeline``, ``repro.stream``,
``repro.store`` and ``repro.core`` only, the way its two kinds of user do:

offline (``batch`` / ``stream``)
    ``Pipeline(LogSource -> BackendSpec -> RankedLatencyStage ->
    SummaryJsonSink + StoreSink).run()`` over gathered per-node logs;
live
    ``FileTailSource.poll -> ActivityStream.classify_lines ->
    IncrementalEngine.ingest -> TraceStore.ingest_cag`` over a log that a
    separate writer process is appending to.

Timers start at the first call into ``repro`` and stop when the store is
finalized; interpreter start-up and imports are outside them.  Only then is
the ground truth loaded and every finished CAG judged against it.

usage: worker.py JOB.json   (prints one JSON result line)
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from time import perf_counter, process_time

from repro.core import (
    ActivityClassifier,
    FrontendSpec,
    LogFormatError,
    TraceResult,
    cag_signature,
    parse_record,
    path_accuracy,
)
from repro.core.kernel import kernel_info
from repro.pipeline import (
    BackendSpec,
    LogSource,
    Pipeline,
    RankedLatencyStage,
    StoreSink,
    SummaryJsonSink,
    TraceSession,
)
from repro.store import TraceStore, latency_over_windows, pattern_mix, run_summary
from repro.stream import ActivityStream, FileTailSource, IncrementalEngine

from spans import Recorder, null_span
from stats import percentile

RUN_ID = "bench"
#: Spans timed alone after the run; not part of the end-to-end interval.
ALONE = ("core.patterns.signature", "store.query")
#: Live engine knobs: the paper's window, a horizon well above RUBiS's
#: worst response time, the skew the simulator injects with slack.
LIVE_ENGINE = {"window": 0.010, "horizon": 5.0, "skew_bound": 0.005}
LIVE_COMMIT_EVERY = 256


def _peak_rss_mb() -> float:
    """This process's own peak resident set.

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the parent,
    so a worker started by a harness that has just simulated a large trace
    would report the harness's peak.  ``VmHWM`` belongs to the address
    space the worker got at ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _frontend(meta: dict) -> FrontendSpec:
    spec = meta["frontend"]
    return FrontendSpec(
        ip=spec["ip"], port=spec["port"], internal_ips=frozenset(spec["internal_ips"])
    )


def _backend(kind: str) -> BackendSpec:
    if kind == "batch":
        return BackendSpec.batch()
    return BackendSpec.streaming(horizon=5.0)


def _source(meta: dict) -> LogSource:
    return LogSource(
        meta["logs"], _frontend(meta), ignore_programs=meta["ignore_programs"]
    )


def _counters(result) -> dict:
    """Ranker and eviction counts every backend's result carries."""
    ranker, engine = result.ranker_stats, result.engine_stats
    return {
        "core.ranker.noise_discarded": ranker.noise_discarded,
        "core.ranker.rule1": ranker.rule1_selections,
        "core.ranker.rule2": ranker.rule2_selections,
        "stream.incremental.evicted_entries": engine.evicted_mmap_entries
        + engine.evicted_cmap_entries
        + engine.evicted_backlog_parts
        + engine.evicted_open_cags,
    }


# -- offline, as users run it -------------------------------------------------


def run_offline(job: dict, meta: dict) -> dict:
    handed = []
    wall0, cpu0 = perf_counter(), process_time()
    pipeline = Pipeline(
        _source(meta),
        _backend(meta["kind"]),
        stages=[RankedLatencyStage()],
        sinks=[
            SummaryJsonSink(job["summary"]),
            StoreSink(job["store"], run_id=RUN_ID, scenario=meta["scenario"]),
        ],
    )
    session = pipeline.run(on_cag=lambda cag: handed.append(perf_counter()))
    wall1, cpu1 = perf_counter(), process_time()
    return {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "cags": session.cags,
        "lags_s": [stamp - wall0 for stamp in handed],
    }


# -- offline, stage by stage under spans ---------------------------------------


def run_offline_traced(job: dict, meta: dict, rec: Recorder) -> dict:
    span = rec.span
    batch = meta["kind"] == "batch"
    correlate_span = "core.correlator.batch" if batch else "stream.incremental.correlate"
    source = _source(meta)
    backend = _backend(meta["kind"])
    sink = StoreSink(job["store"], run_id=RUN_ID, scenario=meta["scenario"])
    classifier = ActivityClassifier(
        frontends=[_frontend(meta)], ignore_programs=set(meta["ignore_programs"])
    )
    handed = []
    malformed = 0

    def hand_to_store(cag) -> None:
        with span("store.ingest"):
            sink.on_cag(cag)
        handed.append(perf_counter())

    wall0, cpu0 = perf_counter(), process_time()
    with span("e2e"):
        with span("stream.reader.read"):
            lines = []
            tails = [FileTailSource(path) for path in meta["logs"]]
            for tail in tails:
                lines.extend(tail.drain())
        with span("core.log_format.parse"):
            records = []
            for line in lines:
                try:
                    records.append(parse_record(line))
                except LogFormatError:
                    malformed += 1
        with span("core.log_format.classify"):
            activities = classifier.classify_all(records)
        with span(correlate_span):
            result = backend.correlate(activities, on_cag=hand_to_store)
        trace = TraceResult(
            correlation=result, filtered_records=classifier.filtered_count
        )
        session = TraceSession(source=source, backend=backend, trace=trace)
        with span("pipeline.stages.ranked_latency"):
            report = RankedLatencyStage().run(session)
        with span("pipeline.sinks.summary_json"):
            SummaryJsonSink(job["summary"]).write(session)
        with span("store.finalize"):
            sink.write(session)
    wall1, cpu1 = perf_counter(), process_time()

    # Timed alone, after the run: work the pipeline repeats inside other
    # layers (signature) and the read side of the store.
    with span("core.patterns.signature"):
        for cag in result.cags:
            cag_signature(cag)
    with span("store.query"):
        with TraceStore.open(job["store"]) as store:
            latency_over_windows(store, run_id=RUN_ID, bucket_s=5.0)
            pattern_mix(store, RUN_ID)
            run_summary(store, RUN_ID)
            store.run_digest(RUN_ID)

    spans = rec.by_name()
    parse_s = spans["core.log_format.parse"]["total_s"]
    classify_s = spans["core.log_format.classify"]["total_s"]
    correlate_s = spans[correlate_span]["self_s"]
    layers = {
        **_counters(result),
        "stream.reader.read_s": spans["stream.reader.read"]["total_s"],
        "stream.reader.lines": len(lines),
        "stream.reader.bytes": sum(tail.offset for tail in tails),
        "core.log_format.parse_s": parse_s,
        "core.log_format.classify_s": classify_s,
        "core.log_format.filtered": classifier.filtered_count,
        "core.log_format.malformed": malformed,
        "core.log_format.us_per_line": (parse_s + classify_s) / len(lines) * 1e6,
        "core.log_format.gc_gen2_s": spans["core.log_format.parse"]["gc2_s"]
        + spans["core.log_format.classify"]["gc2_s"],
        "core.patterns.signature_s": spans["core.patterns.signature"]["total_s"],
        "pipeline.stages.ranked_latency_s": spans["pipeline.stages.ranked_latency"][
            "total_s"
        ],
        "pipeline.stages.patterns": len(report),
        "pipeline.sinks.summary_json_s": spans["pipeline.sinks.summary_json"]["total_s"],
        "store.ingest_s": spans["store.ingest"]["total_s"],
        "store.finalize_s": spans["store.finalize"]["total_s"],
        "store.query_s": spans["store.query"]["total_s"],
    }
    if batch:
        layers["core.correlator.batch_s"] = correlate_s
        layers["core.correlator.batch_self_s"] = result.correlation_time
        layers["core.correlator.batch_prep_s"] = correlate_s - result.correlation_time
        layers["core.correlator.peak_buffered"] = result.peak_buffered_activities
        layers["core.correlator.peak_state_entries"] = result.peak_state_entries
    else:
        layers["stream.incremental.correlate_s"] = correlate_s
        # Wall the driver spends in front of the engine: the global sort
        # of the materialised trace and the chunk slicing.
        layers["stream.incremental.order_s"] = correlate_s - result.correlation_time
        layers["stream.incremental.peak_state_entries"] = result.peak_state_entries
    return {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "cags": result.cags,
        "lags_s": [stamp - wall0 for stamp in handed],
        "layers": layers,
    }


# -- live --------------------------------------------------------------------


def run_live(job: dict, meta: dict, rec) -> dict:
    span = rec.span if rec is not None else null_span
    t0, deadline = job["t0"], job["deadline"]
    total = meta["lines"]
    cpu0 = process_time()
    tail = FileTailSource(job["tail"])
    stream = ActivityStream(
        frontends=[_frontend(meta)], ignore_programs=set(meta["ignore_programs"])
    )
    engine = IncrementalEngine(**LIVE_ENGINE)
    store = TraceStore(job["store"])
    run_key = store.begin_run(RUN_ID, scenario=meta["scenario"])
    handed = []  # (cag, monotonic time it was handed to the store)
    poll_sizes = []
    polls = seen = pending = 0

    def hand_to_store(cags) -> None:
        nonlocal pending
        for cag in cags:
            handed.append((cag, time.monotonic()))
            with span("store.ingest"):
                if store.ingest_cag(run_key, cag):
                    pending += 1
                    if pending >= LIVE_COMMIT_EVERY:
                        store.commit()
                        pending = 0

    def consume(lines) -> None:
        with span("core.log_format.classify"):
            activities = stream.classify_lines(lines)
        with span("stream.incremental.ingest"):
            finished = engine.ingest(activities)
        hand_to_store(finished)

    time.sleep(max(0.0, t0 - time.monotonic()))
    with span("e2e"):
        while seen < total and time.monotonic() < deadline:
            with span("stream.reader.read"):
                lines = tail.poll()
            polls += 1
            if not lines:
                time.sleep(0.001)
                continue
            seen += len(lines)
            poll_sizes.append(len(lines))
            consume(lines)
        drained = time.monotonic()
        with span("stream.reader.read"):
            lines = tail.drain()
        if lines:
            seen += len(lines)
            consume(lines)
        with span("stream.incremental.flush"):
            finished = engine.flush()
        hand_to_store(finished)
        with span("store.finalize"):
            result = engine.result()
            store.finalize_run(
                run_key,
                scenario=meta["scenario"],
                source=f"tail of {os.path.basename(job['tail'])}",
                backend=f"incremental {LIVE_ENGINE}",
                window_s=result.window,
                incomplete=len(result.incomplete_cags),
                correlation_time_s=result.correlation_time,
            )
            store.close()
    end = time.monotonic()
    out = {
        "wall_s": end - t0,
        "cpu_s": process_time() - cpu0,
        "cags": [cag for cag, _stamp in handed],
        "stamps": [stamp for _cag, stamp in handed],
        "lines_seen": seen,
        "drained": drained,
    }
    if rec is not None:
        spans = rec.by_name()
        out["layers"] = {
            **_counters(result),
            "stream.reader.read_s": spans["stream.reader.read"]["total_s"],
            "stream.reader.lines": seen,
            "stream.reader.bytes": tail.offset,
            "stream.reader.polls": polls,
            "stream.reader.lines_per_poll_p50": percentile(poll_sizes, 50),
            # parse and classify are one fused call on this path
            "core.log_format.classify_s": spans["core.log_format.classify"]["total_s"],
            "core.log_format.filtered": stream.filtered_records,
            "core.log_format.malformed": stream.malformed_lines,
            "core.log_format.us_per_line": spans["core.log_format.classify"]["total_s"]
            / seen
            * 1e6,
            "core.log_format.gc_gen2_s": spans["core.log_format.classify"]["gc2_s"],
            "stream.incremental.ingest_s": spans["stream.incremental.ingest"]["total_s"],
            "stream.incremental.flush_s": spans["stream.incremental.flush"]["total_s"],
            "stream.incremental.peak_state_entries": result.peak_state_entries,
            "store.ingest_s": spans["store.ingest"]["total_s"],
            "store.finalize_s": spans["store.finalize"]["total_s"],
        }
    return out


# -- one backend's correlate call alone ------------------------------------------


def run_correlate_only(job: dict, meta: dict) -> dict:
    """Time one ``BackendSpec.correlate`` over the workload's activities.

    Exists so the sharded driver and the reference kernel (this mode under
    ``REPRO_KERNEL=python``) have a number beside the batch/native one.
    """
    activities = _source(meta).activities()
    if job["backend"] == "sharded":
        backend = BackendSpec.sharded(max_workers=2, executor="thread")
    else:
        backend = BackendSpec.batch()
    start = perf_counter()
    result = backend.correlate(activities)
    return {"correlate_s": perf_counter() - start, "cags": result.cags}


# -- checking ----------------------------------------------------------------------


def check(job: dict, meta: dict, out: dict) -> dict:
    """Judge every CAG against the simulator's ground truth.

    A request fails unless exactly one finished CAG reproduces its path;
    on the live workload it also fails when that CAG reached the store
    later than the lag limit after its END line was due.
    """
    with open(meta["truth"], "rb") as handle:
        truth = pickle.load(handle)
    cags = out.pop("cags")
    report = path_accuracy(cags, truth["ground_truth"])
    failed = report.total_requests - report.correct_paths
    if meta["kind"] == "live":
        end_line = truth["end_line"]
        lags = []
        for judgement, stamp in zip(report.judgements, out.pop("stamps")):
            if not judgement.correct:
                continue
            due = job["t0"] + end_line[judgement.request_id] / job["rate"]
            lags.append(stamp - due)
            if stamp - due > job["lag_limit_s"]:
                failed += 1
        out["lags_s"] = lags
    out["requests"] = report.total_requests
    out["failed"] = failed
    if "store" in job:
        with TraceStore.open(job["store"]) as store:
            out["run_digest"] = store.run_digest(RUN_ID)
            out["store_rows"] = store.run_row(RUN_ID)["requests"]
        out["store_bytes"] = os.path.getsize(job["store"])
    return out


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    with open(job["meta"], encoding="utf-8") as handle:
        meta = json.load(handle)
    rss_before = _peak_rss_mb()
    rec = None
    if job.get("traced"):
        rec = Recorder()
        rec.watch_gc()
    if job["mode"] == "correlate_only":
        out = run_correlate_only(job, meta)
    elif meta["kind"] == "live":
        out = run_live(job, meta, rec)
    elif rec is not None:
        out = run_offline_traced(job, meta, rec)
    else:
        out = run_offline(job, meta)
    # Read before the ground truth is loaded: the peak is the tracer's.
    out["peak_rss_mb"] = _peak_rss_mb()
    out["rss_before_mb"] = rss_before
    out["kernel"] = kernel_info().name
    if rec is not None:
        whole = rec.by_name()
        timed = [row for name, row in whole.items() if name not in ALONE]
        out["layers"]["gc.gen2_count"] = sum(row["gc2_count"] for row in timed)
        out["layers"]["gc.gen2_s"] = sum(row["gc2_s"] for row in timed)
        out["layers"]["gc.gen2_max_ms"] = max(row["gc2_max_s"] for row in timed) * 1e3
        # What the spans under the end-to-end one cover.
        out["stages_s"] = whole["e2e"]["total_s"] - whole["e2e"]["self_s"]
        rec.write_jsonl(job["spans"])
    out = check(job, meta, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
