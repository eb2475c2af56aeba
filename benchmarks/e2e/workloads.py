"""Workload definitions and input generation (the benchmark's set-up).

A workload is one set of inputs plus the way a user pushes them through
the tracer.  Inputs are made from the seed alone: a scenario is simulated,
its TCP_TRACE records are written as the log files an operator would have
gathered, and the simulator's ground truth is pickled next to them for the
checker.  The measured workers only ever see those files.

Sizes are half of what the issue sketched (its ~172 k-line traces need
~7 s per repetition and ~4.5 s per set-up): the driver contract allows
about 37 s per invocation for three set-ups plus the measured repetitions,
so repetitions were cut to the floor first and the traces then halved.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

from repro.core import format_record
from repro.services.noise import NoiseConfig
from repro.topology.library import ScenarioConfig, run_scenario
from repro.topology.workload import WorkloadStages

#: Open-loop append rate of the live workload, lines per second.  Fixed:
#: about a third of what the tracer sustains, where lag repeats run to run.
LIVE_RATE = 10_000.0
#: Lines per append of the live writer.
LIVE_BATCH = 64
#: A CAG handed to the store later than this after its END line was due
#: counts as a failed request, and so does a whole replay whose tail is not
#: drained this soon after the last append.  Two orders above the median
#: lag: the reference machine now and then stalls every process for most of
#: a second, and a workload that fails on its own measures nothing.
LIVE_LAG_LIMIT_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``batch`` / ``stream``: logs at rest through ``Pipeline.run``;
    #: ``live``: a growing log tailed while a writer appends to it
    kind: str
    #: (seed, runtime seconds) -> scenario config
    config: Callable[[int, float], ScenarioConfig]
    #: simulated seconds, and the line count the trace is then cut to;
    #: the second pair is the ``--quick`` scale
    runtime_s: float
    lines: int
    quick_runtime_s: float
    quick_lines: int


def _rubis(seed: int, runtime: float) -> ScenarioConfig:
    return ScenarioConfig(
        "rubis", clients=500, stages=WorkloadStages(runtime=runtime), seed=seed
    )


def _noisy(seed: int, runtime: float) -> ScenarioConfig:
    return ScenarioConfig(
        "rubis",
        clients=60,
        stages=WorkloadStages(runtime=runtime),
        seed=seed,
        noise=NoiseConfig.paper_noise(10),
    )


def _fanout(seed: int, runtime: float) -> ScenarioConfig:
    return ScenarioConfig(
        "fanout_aggregator",
        arrival_rate=100.0,
        stages=WorkloadStages(runtime=runtime),
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rubis_offline", "batch", _rubis, 30.0, 80_000, 3.0, 10_000),
        Workload("noisy_offline", "batch", _noisy, 60.0, 100_000, 6.0, 12_000),
        Workload("fanout_stream", "stream", _fanout, 30.0, 80_000, 3.0, 12_000),
        # Shorter than the offline traces: the tail of the lag distribution
        # only repeats when several replays fit in one run (see README).
        Workload("rubis_live", "live", _rubis, 12.0, 32_000, 3.0, 10_000),
    )
}


def _write_log(path: Path, records, digest) -> None:
    data = ("\n".join(format_record(record) for record in records) + "\n").encode()
    digest.update(data)
    path.write_bytes(data)


def generate(workload: Workload, seed: int, quick: bool, outdir: Path) -> dict:
    """Simulate ``workload`` at ``seed`` and write its input files.

    The simulated trace is cut to the workload's fixed line count, the way
    logs gathered at some instant end mid-request: how much a seed happens
    to generate would otherwise move memory and time by a few percent.
    Requests that lose a line to the cut leave the ground truth.

    Returns the description the workers are started with (also written as
    ``meta.json``): file paths, the frontend the classifier needs, line and
    request counts, and a sha256 over the log bytes.
    """
    runtime = workload.quick_runtime_s if quick else workload.runtime_s
    run = run_scenario(workload.config(seed, runtime))
    records = sorted(run.all_records(), key=lambda record: record.timestamp)
    size = workload.quick_lines if quick else workload.lines
    records, cut = records[:size], records[size:]
    cut_requests = {record.request_id for record in cut}
    truth = {
        "ground_truth": {
            request_id: request
            for request_id, request in run.ground_truth.items()
            if request_id not in cut_requests
        }
    }
    outdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    frontend = run.frontend_spec()
    if workload.kind == "live":
        logs = [outdir / "live.src"]
        _write_log(logs[0], records, digest)
        # Line index of each request's END (the frontend's last SEND to
        # the external client): its due time is t0 + index / rate.
        end_line = {}
        for index, record in enumerate(records):
            if (
                record.request_id is not None
                and record.direction == "SEND"
                and frontend.is_frontend_endpoint(record.src_ip, record.src_port)
                and frontend.is_external(record.dst_ip)
            ):
                end_line[record.request_id] = index
        truth["end_line"] = end_line
    else:
        by_node: Dict[str, list] = {}
        for record in records:
            by_node.setdefault(record.hostname, []).append(record)
        logs = []
        for node in sorted(by_node):
            logs.append(outdir / f"{node}.log")
            _write_log(logs[-1], by_node[node], digest)
    with open(outdir / "truth.pkl", "wb") as handle:
        pickle.dump(truth, handle, protocol=pickle.HIGHEST_PROTOCOL)
    meta = {
        "workload": workload.name,
        "kind": workload.kind,
        "scenario": run.topology.name,
        "seed": seed,
        "logs": [str(path) for path in logs],
        "truth": str(outdir / "truth.pkl"),
        "frontend": {
            "ip": frontend.ip,
            "port": frontend.port,
            "internal_ips": sorted(frontend.internal_ips),
        },
        "ignore_programs": sorted(run.topology.ignore_programs),
        "lines": len(records),
        "requests": len(truth["ground_truth"]),
        "input_digest": digest.hexdigest(),
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return meta
