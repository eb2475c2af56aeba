#!/usr/bin/env python3
"""Misconfiguration shooting: find the undersized JBoss thread pool.

Reproduces the workflow of Section 5.4.1.  With the application server's
``MaxThreads`` left at its default of 40, throughput degrades and response
times climb as the client count passes the saturation point -- yet no
node's CPU or I/O looks busy, so classic utilisation-based debugging gets
stuck.  PreciseTracer's latency percentages show the time going into the
httpd -> java *interaction* (requests waiting for a free pool thread),
which points straight at the thread-pool configuration.  Raising
``MaxThreads`` to 250 removes the bottleneck.

Each load level is one :class:`repro.Pipeline` run (simulation source +
batch backend + :class:`repro.ProfileStage`); the diagnosis step is a
:class:`repro.DiagnosisStage` comparing the heavy-load session against
the moderate-load reference.

Run with::

    python examples/misconfiguration_shooting.py
"""

from __future__ import annotations

from repro import (
    BackendSpec,
    DiagnosisStage,
    Pipeline,
    ProfileStage,
    ScenarioConfig,
    WorkloadStages,
)

STAGES = WorkloadStages(up_ramp=1.5, runtime=8.0, down_ramp=0.5)
LIGHT_LOAD = 300
HEAVY_LOAD = 900


def run_pipeline(clients: int, max_threads: int, label: str):
    config = ScenarioConfig(
        "rubis",
        clients=clients,
        workers=(("app", max_threads),),  # the JBoss tier's MaxThreads
        stages=STAGES,
        clock_skew=0.001,
        seed=23,
    )
    pipeline = Pipeline(
        source=config,
        backend=BackendSpec.batch(window=0.010),
        stages=[ProfileStage(label)],
    )
    return pipeline.run()


def print_profile(title, session) -> None:
    run = session.run
    profile = session.analyses["profile"]
    print(f"\n--- {title} ---")
    print(f"  throughput        : {run.throughput:.1f} req/s")
    print(f"  mean response time: {run.mean_response_time * 1000:.1f} ms")
    print(f"  CPU utilisation   : "
          + ", ".join(f"{node} {value * 100:.0f}%" for node, value in run.cpu_utilisation.items()))
    for label, share in sorted(profile.percentages.items(), key=lambda kv: -kv[1]):
        print(f"    {label:16s} {share:6.1f} %")


def main() -> None:
    print("Step 1: baseline at moderate load (MaxThreads=40)")
    light = run_pipeline(LIGHT_LOAD, 40, f"{LIGHT_LOAD} clients")
    print_profile(f"{LIGHT_LOAD} clients, MaxThreads=40", light)

    print("\nStep 2: the problem appears at high load (MaxThreads=40)")
    heavy = run_pipeline(HEAVY_LOAD, 40, f"{HEAVY_LOAD} clients")
    print_profile(f"{HEAVY_LOAD} clients, MaxThreads=40", heavy)
    print("\n  note: CPU stays far from saturation -- utilisation-based debugging")
    print("  would not explain the degraded throughput and response time.")

    print("\nStep 3: PreciseTracer's diagnosis (latency-percentage changes)")
    result = DiagnosisStage(light, threshold=10.0, label="heavy").run(heavy)
    print(result.report())
    suspect = result.primary_suspect
    if suspect is not None and suspect.label == "httpd2java":
        print("\n  => the wait happens between httpd handing the request over and a")
        print("     JBoss worker thread picking it up: the thread pool is too small.")

    print("\nStep 4: fix the configuration (MaxThreads=250) and re-run")
    fixed = run_pipeline(HEAVY_LOAD, 250, "fixed")
    print_profile(f"{HEAVY_LOAD} clients, MaxThreads=250", fixed)

    heavy_run, fixed_run = heavy.run, fixed.run
    speedup = heavy_run.mean_response_time / max(fixed_run.mean_response_time, 1e-9)
    gain = 100.0 * (fixed_run.throughput - heavy_run.throughput) / max(heavy_run.throughput, 1e-9)
    print(f"\nResult: +{gain:.0f}% throughput, {speedup:.1f}x faster responses after the fix.")


if __name__ == "__main__":
    main()
