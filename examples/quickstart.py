#!/usr/bin/env python3
"""Quickstart: trace a simulated three-tier service end to end.

This example follows the PreciseTracer workflow of the paper, expressed
as one :class:`repro.Pipeline` -- the facade every entry point of the
repo (CLI, experiments, examples) routes through:

1. **source**: run a RUBiS-like three-tier deployment under an emulated
   client load with the TCP_TRACE probes installed on every service node
   (a ``ScenarioConfig`` passed to the pipeline is simulated on demand);
2. **backend**: correlate the gathered activity logs into one Component
   Activity Graph (CAG) per request -- here the offline batch driver;
   swapping in ``BackendSpec.streaming(...)`` or ``.sharded(...)``
   changes nothing downstream;
3. **stages**: classify the CAGs into causal-path patterns, profile the
   dominant pattern's latency percentages, and check the reconstruction
   against the simulator's ground truth (Section 5.2's accuracy metric).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AccuracyStage,
    BackendSpec,
    Pipeline,
    ProfileStage,
    RankedLatencyStage,
    ScenarioConfig,
    WorkloadStages,
)


def main() -> None:
    config = ScenarioConfig(
        "rubis",                # httpd -> JBoss -> MySQL, Browse_Only mix
        clients=150,
        stages=WorkloadStages(up_ramp=1.5, runtime=8.0, down_ramp=0.5),
        clock_skew=0.005,       # 5 ms of clock skew across the service nodes
        seed=11,
    )

    pipeline = Pipeline(
        source=config,
        backend=BackendSpec.batch(window=0.010),  # 10 ms sliding time window
        stages=[
            RankedLatencyStage(top=5),
            ProfileStage("quickstart"),
            AccuracyStage(),
        ],
    )

    print("== running the simulated three-tier deployment ==")
    session = pipeline.run()
    run = session.run
    print(f"  emulated clients        : {config.clients}")
    print(f"  requests completed      : {run.completed_requests}")
    print(f"  throughput              : {run.throughput:.1f} req/s")
    print(f"  mean response time      : {run.mean_response_time * 1000:.1f} ms")
    print(f"  kernel activities logged: {run.total_activities}")
    for hostname, records in sorted(run.records_by_node.items()):
        print(f"    {hostname:5s}: {len(records)} TCP_TRACE records")

    print("\n== correlating activities into causal paths ==")
    trace = session.trace
    print(f"  backend                 : {session.backend.describe()}")
    print(f"  causal paths (CAGs)     : {trace.request_count}")
    print(f"  incomplete paths        : {len(trace.incomplete_cags)}")
    print(f"  correlation time        : {trace.correlation_time:.3f} s")
    print(f"  estimated peak memory   : {trace.peak_memory_bytes / 1e6:.2f} MB")

    print("\n== ranked causal-path patterns (most frequent first) ==")
    for row in session.analyses["ranked_latency"]:
        hops = "->".join(component.split("/")[1] for component in row["components"])
        print(
            f"  #{row['rank']}: {row['paths']:4d} paths x "
            f"{row['activities_per_path']:2d} activities, "
            f"avg {row['average_latency_s'] * 1000:7.1f} ms  ({hops})"
        )

    print("\n== latency percentages of the dominant pattern ==")
    profile = session.analyses["profile"]
    for label, share in sorted(profile.percentages.items(), key=lambda kv: -kv[1]):
        print(f"  {label:16s} {share:6.1f} %")
    print(f"  (average end-to-end latency: {profile.average_latency * 1000:.1f} ms)")

    print("\n== accuracy against ground truth (Section 5.2) ==")
    report = session.analyses["accuracy"]
    print(f"  logged requests : {report.total_requests}")
    print(f"  correct paths   : {report.correct_paths}")
    print(f"  false positives : {report.false_positives}")
    print(f"  false negatives : {report.false_negatives}")
    print(f"  path accuracy   : {report.accuracy * 100:.2f} %")


if __name__ == "__main__":
    main()
