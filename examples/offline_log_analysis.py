#!/usr/bin/env python3
"""Offline analysis of raw TCP_TRACE log files.

PreciseTracer is an *offline* tool: the probes write per-node log files in
the format ``timestamp hostname program pid tid SEND|RECEIVE
src_ip:port-dst_ip:port size`` and the correlator is run later on the
gathered files.  This example shows that workflow through the pipeline
facade, starting from nothing but text files and network-level facts:

1. run a simulated deployment (with coexisting noise traffic) and write
   one log file per service node into a temporary directory -- exactly the
   artefacts a real deployment would hand you;
2. build a :class:`repro.Pipeline` whose source is a
   :class:`repro.LogSource` over those files (frontend address + noise
   program names are all it needs) and whose sinks export the results:
   a trace-summary JSON document, the CAG stream as JSON Lines, and
   Graphviz DOT renderings of the first few causal paths;
3. print the reconstructed paths, the noise statistics and the ranked
   per-pattern latency report.

Run with::

    python examples/offline_log_analysis.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    BackendSpec,
    CagJsonlSink,
    DotSink,
    FrontendSpec,
    LogSource,
    NoiseConfig,
    Pipeline,
    RankedLatencyStage,
    ScenarioConfig,
    SummaryJsonSink,
    WorkloadStages,
    run_scenario,
)
from repro.core.log_format import format_record


def write_log_files(run, directory: Path) -> list:
    """Write one TCP_TRACE log file per traced node, as the probes would."""
    paths = []
    for hostname, records in sorted(run.records_by_node.items()):
        path = directory / f"tcp_trace_{hostname}.log"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(f"# TCP_TRACE log gathered from node {hostname}\n")
            for record in records:
                handle.write(format_record(record) + "\n")
        paths.append(path)
        print(f"  wrote {path.name}: {len(records)} records")
    return paths


def main() -> None:
    print("== step 1: run the deployment and gather per-node logs ==")
    config = ScenarioConfig(
        "rubis",
        clients=120,
        stages=WorkloadStages(up_ramp=1.0, runtime=6.0, down_ramp=0.5),
        noise=NoiseConfig.paper_noise(scale=0.5),
        # Keep the skew below the transfer latencies so the interaction
        # latencies stay meaningful; correctness does not depend on it.
        clock_skew=0.002,
        seed=47,
    )
    run = run_scenario(config)
    workdir = Path(tempfile.mkdtemp(prefix="precisetracer_logs_"))
    log_files = write_log_files(run, workdir)

    print("\n== step 2: offline correlation from the raw files ==")
    source = LogSource(
        log_files,
        frontend=FrontendSpec(
            ip="10.0.0.1",
            port=80,
            internal_ips=frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"}),
        ),
        ignore_programs={"sshd", "rlogind"},  # attribute-based noise filter
    )
    pipeline = Pipeline(
        source=source,
        backend=BackendSpec.batch(window=0.005),
        stages=[RankedLatencyStage(top=4)],
        sinks=[
            SummaryJsonSink(workdir / "trace_summary.json"),
            CagJsonlSink(workdir / "cags.jsonl"),
            DotSink(workdir / "dot", limit=3),
        ],
    )
    session = pipeline.run()
    result = session.trace

    print(f"  raw lines read          : {source.lines_read}")
    print(f"  filtered by attributes  : {result.filtered_records} (sshd / rlogind)")
    print(f"  discarded by is_noise   : {result.correlation.ranker_stats.noise_discarded}")
    print(f"  causal paths completed  : {result.request_count}")
    print(f"  correlation time        : {result.correlation_time:.3f} s")

    print("\n== step 3: ranked per-pattern latency report ==")
    for row in session.analyses["ranked_latency"]:
        top = sorted(row["percentages"].items(), key=lambda kv: -kv[1])[:3]
        top_text = ", ".join(f"{label} {share:.0f}%" for label, share in top)
        print(
            f"  {row['paths']:4d} paths x {row['activities_per_path']:2d} activities, "
            f"avg {row['average_latency_s'] * 1000:7.1f} ms  ({top_text})"
        )

    print("\n== step 4: sanity check against the simulator's ground truth ==")
    accuracy = session.trace.accuracy(run.ground_truth, time_tolerance=1e-5)
    print(f"  path accuracy: {accuracy.accuracy * 100:.2f} % "
          f"({accuracy.correct_paths}/{accuracy.total_requests} requests)")

    print("\n== step 5: exported artefacts ==")
    for sink_name, paths in session.artifacts.items():
        for path in paths:
            print(f"  {sink_name:12s} -> {path}")
    print(f"\nlog files kept in {workdir}")


if __name__ == "__main__":
    main()
