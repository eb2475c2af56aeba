#!/usr/bin/env python3
"""Streaming analysis: correlate a live log incrementally, request by request.

The quickstart example batch-correlates a finished run.  This walkthrough
shows the *online* pipeline instead, the mode a production deployment
would run against live multi-tier traffic -- the same
:class:`repro.Pipeline` facade, with two substitutions:

1. the **source** is a TCP_TRACE log file on disk, read through the
   chunked tail reader (:class:`repro.LogSource` wraps
   :class:`repro.FileTailSource`: chunked reads, partial lines
   reassembled across chunk boundaries, malformed lines counted);
2. the **backend** is ``BackendSpec.streaming(...)``: every Component
   Activity Graph is emitted through the ``on_cag`` hook the moment the
   request's END activity is correlated -- no waiting for the end of the
   trace -- while the ``horizon`` knob keeps memory bounded on endless
   streams by evicting state idle for longer than the horizon;
3. at the end, :meth:`repro.Pipeline.verify_equivalence` re-runs the
   same source through the batch and sharded backends and asserts all
   three reconstructions are identical -- the repo's central invariant,
   available as one API call.

To follow a file that is still being written, drive
:class:`repro.IncrementalEngine` directly with ``FileTailSource.poll()``
in a loop; the facade covers the data-at-rest shape.

Run with::

    python examples/streaming_analysis.py
"""

from __future__ import annotations

import os
import tempfile

from repro import (
    BackendSpec,
    LogSource,
    Pipeline,
    ScenarioConfig,
    WorkloadStages,
    run_scenario,
)
from repro.core.log_format import format_record


def main() -> None:
    # -- 1. simulate and persist the logs ------------------------------------
    config = ScenarioConfig(
        "rubis",
        clients=80,
        stages=WorkloadStages(up_ramp=1.0, runtime=6.0, down_ramp=0.5),
        clock_skew=0.002,
        seed=23,
    )
    print("== running the simulated three-tier deployment ==")
    run = run_scenario(config)
    print(f"  requests completed : {run.completed_requests}")
    print(f"  activities logged  : {run.total_activities}")

    # A merged feed, as a log shipper tailing all three nodes would see it.
    records = sorted(run.all_records(), key=lambda record: record.timestamp)
    with tempfile.NamedTemporaryFile(
        "w", suffix=".log", delete=False, encoding="utf-8"
    ) as handle:
        log_path = handle.name
        for record in records:
            handle.write(format_record(record) + "\n")
    print(f"  log written to     : {log_path}")

    try:
        # -- 2. the online pipeline: tail + classify + correlate -------------
        pipeline = Pipeline(
            source=LogSource(
                log_path,
                frontend=run.frontend_spec(),
                ignore_programs={"sshd", "rlogind"},
                chunk_bytes=16 * 1024,
            ),
            backend=BackendSpec.streaming(
                window=0.010,   # the paper's default sliding window
                horizon=5.0,    # evict state idle for > 5 s of trace time
                skew_bound=0.005,
            ),
        )

        print("\n== streaming the log through the incremental backend ==")
        finished = 0

        def on_cag(cag) -> None:
            nonlocal finished
            finished += 1
            if finished <= 5 or finished % 50 == 0:
                duration = (cag.duration() or 0.0) * 1000
                print(
                    f"  finished CAG #{finished:<4d} "
                    f"vertices={len(cag):<3d} latency={duration:6.1f} ms"
                )

        session = pipeline.run(on_cag=on_cag)
        result = session.trace.correlation
        stats = result.engine_stats
        print(f"\n  total finished paths : {finished}")
        print(
            "  peak live entries    : "
            f"{result.peak_state_entries + result.peak_buffered_activities}"
        )
        print(
            "  evictions            : "
            f"{stats.evicted_mmap_entries} mmap, "
            f"{stats.evicted_cmap_entries} cmap, "
            f"{stats.evicted_open_cags} open CAGs"
        )

        # -- 3. accuracy + cross-backend equivalence -------------------------
        print("\n== verifying against ground truth and the other backends ==")
        # The log file carries no oracle, so score against the run's own
        # ground truth (a simulation source would provide it to an
        # AccuracyStage automatically).
        accuracy_report = session.trace.accuracy(run.ground_truth)
        print(f"  stream accuracy : {accuracy_report.accuracy * 100:.2f} %")
        report = pipeline.verify_equivalence()
        print(report.describe())
        report.require()  # raises if any backend disagreed
    finally:
        os.unlink(log_path)


if __name__ == "__main__":
    main()
