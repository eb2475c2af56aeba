"""Command-line interface of the reproduction.

Examples::

    # regenerate one figure
    precisetracer figure fig15

    # regenerate every table/figure and write a combined report
    precisetracer report --output experiments_report.txt

    # run one simulated experiment and print trace statistics
    precisetracer trace --clients 300 --window 0.01

    # run a scenario from the topology library (simulate --list shows all)
    precisetracer simulate --scenario fanout_aggregator

    # the same, as machine-readable JSON (trace-summary document)
    precisetracer simulate --scenario fanout_aggregator --json

    # correlate online: simulate, then replay the logs incrementally
    precisetracer stream --clients 150 --horizon 5

    # overhead control: trace a deterministic 25% of the requests
    precisetracer stream --clients 150 --sample-rate 0.25

    # or cap tracing at 40 requests per second of trace time
    precisetracer trace --clients 300 --sample-budget 40

    # correlate gathered per-node TCP_TRACE logs (read once, a block per
    # file at a time, merged by timestamp as they are read)
    precisetracer stream --input web.log --input app.log --input db.log \
        --frontend 10.0.0.1:80

    # fuzz the correlation pipeline: 25 generated scenarios through the
    # full invariant stack, shrinking any failing seed to a minimal repro
    precisetracer fuzz --seeds 25

    # the nightly variant: more seeds, wall-clock bounded, JSON artifact
    precisetracer fuzz --seeds 50 --budget 600 --output fuzz_report.json

    # append runs to a persistent trace store, then query the history
    precisetracer simulate --scenario rubis --store traces.sqlite --run-id day1
    precisetracer query latency --store traces.sqlite --run day1 --bucket 1
    precisetracer query diff day1 day2 --store traces.sqlite --tolerance 0.25

    # list the available figures
    precisetracer list

Commands
--------
``list`` / ``figure`` / ``report``
    Regenerate the paper's evaluation tables (Section 5).
``trace``
    Run one simulated experiment and batch-trace it (Fig. 2 pipeline).
``simulate``
    Run one scenario from the topology library (``--scenario``; see
    ``simulate --list``) and batch-trace it: the RUBiS deployment, a
    five-tier chain, a fan-out aggregator, cache-aside, or a replicated
    tier behind a round-robin LB -- each with its own workload shape.
``stream``
    The online pipeline (``repro.stream``): chunked ingestion ->
    incremental correlation with watermark eviction -> CAGs emitted as
    requests finish.  ``--horizon`` bounds engine state (seconds of
    local time; state idle for longer is evicted -- pick a value above
    the service's worst-case response time, see
    ``IncrementalEngine.horizon``).  ``--input`` (repeatable: one log
    per node) reads the files a block at a time inside the drive, merged
    by timestamp as they are read, so the first causal paths are out
    before the logs have been read through; ``wall_clock_s`` therefore covers
    read + classify + correlate, while ``correlation_time_s`` stays the
    engine's own clock.  To *follow* a file that is still being written,
    loop :meth:`repro.FileTailSource.poll` from Python.
``diagnose``
    Rerun the Fig. 17 fault scenarios and print the implicated tiers.
``fuzz``
    Differential fuzzing (``repro.fuzz``): seeded random scenarios from
    :mod:`repro.topology.generator` driven through the full invariant
    stack -- batch == streaming == sharded digests, sampled-subset
    identity, ground-truth accuracy, engine-state conservation.  A
    failing seed is shrunk to a minimal ``(seed, limits)`` repro and
    printed (and written to ``--output`` as JSON when given); the exit
    status is 1 when any seed fails, so CI can gate on it.
``query``
    Query a persistent trace store (``repro.store``): ``runs`` lists the
    stored runs, ``latency`` reports percentiles (optionally bucketed
    over time and filtered by pattern/scenario), ``patterns`` shows the
    pattern mix of a run (and, with ``--against``, the mix drift between
    two runs), ``diff`` is the regression gate -- two runs' ranked
    reports compared pattern-by-pattern with a ``--tolerance`` on p50/p95
    movement, exit 1 on regression -- and ``export`` writes the diffable
    run-summary JSON (the golden-file format CI diffs against).  Stores
    are written by ``trace``/``simulate``/``stream`` via ``--store``.

Every data-producing command (``trace`` / ``simulate`` / ``stream``) is
one :class:`repro.pipeline.Pipeline` run -- a source (simulated run or
log file), a backend (:class:`repro.pipeline.BackendSpec`: batch or
streaming) and analysis stages -- differing only in how the
flags select the source and the backend.  ``--json`` prints the
pipeline's trace-summary document instead of the human report; it says
where the drive's wall clock went -- ``wall_clock_s`` (reading the trace,
never simulating it, through the last ``on_cag`` call), ``first_cag_s``
(drive start to the first finished CAG leaving the driver: CAGs leave a
batch run while its drain runs, not after it) and ``hook_time_s`` (spent
inside the store's live-ingest hook) -- beside the engine's own
``correlation_time_s``.

Each flag is declared once.  The flags ``trace``/``simulate``/``stream``
share (run shape, sampling, store, ``--json``) come from
:func:`_add_run_flags`, which each command calls with its own defaults;
``--scenario`` is declared once for ``simulate`` and ``stream``, and
``--store``/``--json`` once for the ``query`` subcommands.  Helpers, not
argparse ``parents=``: parent parsers share their ``Action`` objects, so
one command's ``set_defaults`` would change the others' defaults.
``--fault`` takes its choices from :data:`FAULTS`.

Validation lives in the object that owns each value
(:class:`~repro.pipeline.BackendSpec`, :class:`~repro.sampling.SamplingSpec`,
:class:`~repro.topology.library.ScenarioConfig`, ``WorkloadStages``,
``FrontendSpec``, :func:`~repro.fuzz.run_fuzz`, the store queries): this
module repeats none of their checks and keeps only the flag-combination
rules, the input-file and output-directory checks and ``--horizon``'s
range.  Each command is a ``handler`` its subparser sets; :func:`main`
holds the one converter from a ``ValueError``/``OSError`` to a one-line
exit 2, spelling a field the owner names as its flag.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional

from .experiments import (
    ALL_FIGURES,
    SCALES,
    default_scale,
    figure17_diagnosis,
    render_table,
    write_report,
)
from .pipeline import (
    AccuracyStage,
    BackendSpec,
    LogSource,
    PatternStage,
    Pipeline,
    ProfileStage,
    RunSource,
    SamplingAccuracyStage,
    SamplingSpec,
    StoreSink,
    TraceSession,
)
from .core.export import trace_summary
from .core.log_format import FrontendSpec
from .services.faults import FaultConfig
from .services.noise import NoiseConfig
from .topology.library import Scenario, ScenarioConfig, get_scenario, scenario_names
from .topology.requests import mix_by_name
from .topology.workload import WorkloadStages

#: The fault scenarios ``--fault`` names (its choices, in this order),
#: each a factory of the run's :class:`FaultConfig`.
FAULTS = {
    "none": FaultConfig.none,
    "ejb_delay": FaultConfig.ejb_delay_case,
    "database_lock": FaultConfig.database_lock_case,
    "ejb_network": FaultConfig.ejb_network_case,
}


def _add_run_flags(
    parser: argparse.ArgumentParser,
    runtime: float,
    clients: Optional[int] = None,
    clients_help: Optional[str] = "closed-loop sessions (scenario default)",
) -> None:
    """The run, sampling and store flags trace/simulate/stream share,
    declared with the calling command's own defaults."""
    parser.add_argument("--clients", type=int, default=clients, help=clients_help)
    _add_window_flag(parser)
    parser.add_argument("--runtime", type=float, default=runtime)
    parser.add_argument("--noise", action="store_true", help="enable noise traffic")
    parser.add_argument("--fault", choices=FAULTS, default="none")
    parser.add_argument("--seed", type=int, default=17)
    _add_sampling_flags(parser)
    _add_store_flags(parser)
    parser.add_argument("--json", action="store_true", help="print the trace summary as JSON")


def _add_window_flag(parser: argparse.ArgumentParser) -> None:
    """``--window``, for every command that correlates."""
    parser.add_argument("--window", type=float, default=0.010)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The trace-store flags shared by trace/simulate/stream."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help=(
            "append this run to a persistent SQLite trace store "
            "(created if missing; query it with `precisetracer query`)"
        ),
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="run id to store the run under (requires --store; default: generated)",
    )


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """The request-sampling flags shared by trace/simulate/stream."""
    parser.add_argument(
        "--sample-rate",
        dest="rate",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "trace a deterministic fraction of the requests (0 < RATE <= 1), "
            "decided by hashing each request's causal root"
        ),
    )
    parser.add_argument(
        "--sample-budget",
        dest="budget_per_second",
        type=int,
        default=None,
        metavar="N",
        help="trace at most N requests per second of trace time",
    )
    parser.add_argument(
        "--sample-adaptive",
        dest="target_open_cags",
        type=int,
        default=None,
        metavar="TARGET",
        help=(
            "steer the admission rate toward TARGET open requests in the "
            "engine (feedback control)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precisetracer",
        description="PreciseTracer reproduction (DSN 2009) experiment driver",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale (default: REPRO_SCALE env var or 'small')",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(table, name: str, handler, help: str) -> argparse.ArgumentParser:
        subparser = table.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    command(subparsers, "list", _command_list, "list available figures")
    figure_parser = command(subparsers, "figure", _command_figure, "regenerate one figure")
    figure_parser.add_argument("figure_id", choices=sorted(ALL_FIGURES))
    report_parser = command(subparsers, "report", _command_report, "regenerate every figure")
    diag_parser = command(
        subparsers,
        "diagnose",
        _command_diagnose,
        "run the Fig. 17 fault scenarios and print the suspects",
    )
    diag_parser.add_argument("--threshold", type=float, default=5.0)

    trace_parser = command(subparsers, "trace", _command_trace, "run one experiment and trace it")
    _add_run_flags(trace_parser, runtime=8.0, clients=200, clients_help=None)
    trace_parser.add_argument(
        "--workload", choices=["browse_only", "default"], default="browse_only"
    )
    trace_parser.add_argument("--max-threads", type=int, default=40)
    trace_parser.add_argument("--clock-skew", type=float, default=0.001)

    simulate_parser = command(
        subparsers,
        "simulate",
        _command_simulate,
        "run one scenario from the topology library and trace it",
    )
    stream_parser = command(
        subparsers,
        "stream",
        _command_stream,
        "correlate incrementally (online mode), from a simulation or a log file",
    )
    for scenario_parser in (simulate_parser, stream_parser):
        scenario_parser.add_argument(
            "--scenario",
            default="rubis",
            metavar="NAME",
            help="scenario to simulate (see simulate --list; default: rubis)",
        )
    _add_run_flags(simulate_parser, runtime=8.0)
    simulate_parser.add_argument(
        "--list", action="store_true", help="list available scenarios and exit"
    )
    simulate_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="open/bursty arrivals per second (scenario default)",
    )
    simulate_parser.add_argument(
        "--workload-kind",
        choices=["closed", "open", "bursty"],
        default=None,
        help="override the scenario's workload shape",
    )

    _add_run_flags(
        stream_parser,
        runtime=6.0,
        clients_help="closed-loop sessions (default: 100 for rubis, scenario default otherwise)",
    )
    stream_parser.add_argument(
        "--input",
        action="append",
        default=None,
        metavar="FILE",
        help=(
            "TCP_TRACE log file to ingest; repeat for a set of per-node logs, "
            "which are merged by timestamp as they are read (default: "
            "simulate a run first).  Reading and classification happen "
            "inside the drive: wall_clock_s covers them, correlation_time_s "
            "is the engine's own clock"
        ),
    )
    stream_parser.add_argument(
        "--frontend",
        default=None,
        metavar="IP:PORT",
        help="frontend endpoint for BEGIN/END classification (required with --input)",
    )
    stream_parser.add_argument(
        "--horizon",
        type=float,
        default=5.0,
        help="eviction horizon in seconds of trace time; 0 disables eviction",
    )
    stream_parser.add_argument(
        "--skew-bound",
        type=float,
        default=0.005,
        help="upper bound on node clock skew (delays emission, never changes output)",
    )
    stream_parser.add_argument("--chunk-size", type=int, default=256)
    stream_parser.add_argument(
        "--checkpoint",
        dest="checkpoint_path",
        default=None,
        metavar="FILE",
        help=(
            "periodically snapshot the incremental engine to FILE "
            "(requires --checkpoint-every)"
        ),
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint cadence in ingested activities (requires --checkpoint)",
    )
    stream_parser.add_argument(
        "--resume",
        dest="resume_from",
        default=None,
        metavar="FILE",
        help=(
            "resume a previous run from this checkpoint file instead of "
            "starting at the head of the trace"
        ),
    )

    query_parser = subparsers.add_parser(
        "query",
        help="query a persistent trace store written via --store",
    )
    query_sub = query_parser.add_subparsers(dest="query_command", required=True)

    def query(name: str, handler, help: str, json: bool = True) -> argparse.ArgumentParser:
        """A ``query`` subcommand with the ``--store`` (and ``--json``) flag."""
        subparser = command(query_sub, name, handler, help)
        subparser.add_argument(
            "--store",
            default=None,
            metavar="FILE",
            help="trace store database file (written by trace/simulate/stream --store)",
        )
        if json:
            subparser.add_argument("--json", action="store_true", help="print the result as JSON")
        return subparser

    query("runs", _query_runs, "list the runs in a store")
    latency_parser = query(
        "latency", _query_latency, "latency percentiles, optionally bucketed over time"
    )
    latency_parser.add_argument(
        "--run", default=None, metavar="ID", help="restrict to one run (default: all)"
    )
    latency_parser.add_argument(
        "--pattern",
        default=None,
        metavar="P",
        help="pattern label or signature-hash prefix (>= 6 chars)",
    )
    latency_parser.add_argument(
        "--scenario", default=None, metavar="NAME", help="restrict to one scenario"
    )
    latency_parser.add_argument(
        "--since", type=float, default=None, metavar="SECS",
        help="only requests beginning at or after this trace time",
    )
    latency_parser.add_argument(
        "--until", type=float, default=None, metavar="SECS",
        help="only requests beginning before this trace time",
    )
    latency_parser.add_argument(
        "--bucket", type=float, default=None, metavar="SECS",
        help="group into time buckets of this width (default: one row)",
    )
    patterns_parser = query(
        "patterns",
        _query_patterns,
        "pattern mix of a run; with --against, the mix drift between two runs",
    )
    patterns_parser.add_argument(
        "--against",
        default=None,
        metavar="ID",
        help="second run: report mix drift --run -> --against instead",
    )
    diff_parser = query(
        "diff",
        _query_diff,
        "regression diff of two runs' ranked reports; each side is a "
        "run id in --store or an exported run-summary JSON file; "
        "exit 1 on regression",
    )
    diff_parser.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="baseline and candidate (run id or run-summary JSON file)",
    )
    diff_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed relative p50/p95 increase before a pattern regresses (default: 0.25)",
    )
    export_parser = query(
        "export",
        _query_export,
        "write one run's diffable summary JSON (the golden-file format)",
        json=False,
    )
    for run_parser in (patterns_parser, export_parser):
        run_parser.add_argument("--run", required=True, metavar="ID")
    for output_parser in (report_parser, export_parser):
        output_parser.add_argument(
            "--output", default=None, metavar="FILE", help="write here instead of stdout"
        )

    fuzz_parser = command(
        subparsers,
        "fuzz",
        _command_fuzz,
        "fuzz the correlation pipeline with generated scenarios",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=25, help="consecutive seeds to run (default: 25)"
    )
    fuzz_parser.add_argument(
        "--start-seed", type=int, default=0, help="first seed (default: 0)"
    )
    fuzz_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget; the sweep stops cleanly before exceeding it",
    )
    _add_window_flag(fuzz_parser)
    fuzz_parser.add_argument(
        "--sample-rate",
        dest="sampling_rate",
        type=float,
        default=0.5,
        metavar="RATE",
        help="uniform sampling rate exercised by the sampled invariants",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing seeds as-is instead of minimizing them",
    )
    fuzz_parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the machine-readable JSON fuzz report here",
    )
    return parser


def _scale(args: argparse.Namespace):
    return SCALES[args.scale] if args.scale else default_scale()


def _refuse_missing_directory(path: Optional[str]) -> None:
    """Refuse an output file whose directory does not exist, before any
    work is done (the way :class:`StoreSink` refuses a store path)."""
    if path:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")


def _sampling_from_args(args: argparse.Namespace) -> Optional[SamplingSpec]:
    """Resolve the shared sampling flags into a spec (``None`` = trace all);
    :class:`SamplingSpec` refuses the values, this only the combination."""
    given = [
        flag
        for flag, value in (
            ("--sample-rate", args.rate),
            ("--sample-budget", args.budget_per_second),
            ("--sample-adaptive", args.target_open_cags),
        )
        if value is not None
    ]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} are mutually exclusive")
    if args.rate is not None:
        return SamplingSpec.uniform(args.rate)
    if args.budget_per_second is not None:
        return SamplingSpec.budget(args.budget_per_second)
    if args.target_open_cags is not None:
        return SamplingSpec.adaptive(target_open_cags=args.target_open_cags)
    return None


# ---------------------------------------------------------------------------
# Shared pipeline plumbing for trace / simulate / stream
# ---------------------------------------------------------------------------

def _store_sink_from_args(
    args: argparse.Namespace, scenario: Optional[str]
) -> Optional[StoreSink]:
    """Build the :class:`StoreSink` behind ``--store``/``--run-id``."""
    if args.run_id is not None and args.store is None:
        raise ValueError("--run-id requires --store")
    if args.store is None:
        return None
    return StoreSink(args.store, run_id=args.run_id, scenario=scenario)


def _shared_run_fields(args: argparse.Namespace, up_ramp: float = 1.5) -> dict:
    """The run-config fields ``trace``/``simulate``/``stream`` all share.

    One helper instead of three copy-pasted blocks: stage durations from
    ``--runtime``, noise from ``--noise``, faults from ``--fault``, seed
    from ``--seed`` (all :class:`ScenarioConfig` fields).
    """
    return {
        "stages": WorkloadStages(up_ramp=up_ramp, runtime=args.runtime, down_ramp=0.5),
        "noise": NoiseConfig.paper_noise() if args.noise else NoiseConfig.quiet(),
        "faults": FAULTS[args.fault](),
        "seed": args.seed,
    }


def _session_json(session: TraceSession, command: str, **extra) -> str:
    """The machine-readable document behind ``--json``: the pipeline's
    ``trace_summary`` plus provenance and (when available) accuracy."""
    payload = trace_summary(session.trace)
    payload["command"] = command
    payload["backend"] = session.backend.describe()
    payload["source"] = session.source.describe()
    payload.update(session.source_counters())
    payload.update(session.drive_timings())
    sampling = session.backend.sampling
    if sampling is not None:
        stats = session.trace.correlation.engine_stats
        payload["sampling"] = sampling.describe()
        payload["sampled_out_requests"] = stats.sampled_out_roots
        if "sampling_accuracy" in session.analyses:
            payload["sampling_accuracy"] = session.analyses[
                "sampling_accuracy"
            ].summary()
    elif session.source.ground_truth is not None:
        # Ground-truth path accuracy only makes sense for full traces: a
        # sampled run is *meant* to miss requests, so scoring it against
        # the full oracle would just re-measure the sampling rate.
        report = session.accuracy()
        payload["accuracy"] = report.accuracy
        payload["false_positives"] = report.false_positives
        payload["false_negatives"] = report.false_negatives
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_sampling_report(session: TraceSession) -> None:
    """Human-readable sampling lines shared by trace/simulate."""
    stats = session.trace.correlation.engine_stats
    print(f"requests sampled out    : {stats.sampled_out_roots}")
    fidelity = session.analyses.get(SamplingAccuracyStage.name)
    if fidelity is not None:
        print(f"sample fraction         : {fidelity.sample_fraction * 100:.1f} %")
        print(f"pattern coverage        : {fidelity.pattern_coverage * 100:.1f} %")
        if fidelity.dominant_profile_distance is not None:
            print(
                "dominant profile drift  : "
                f"{fidelity.dominant_profile_distance:.2f} pp"
            )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _command_list(args: argparse.Namespace) -> int:
    for figure_id in sorted(ALL_FIGURES):
        print(figure_id)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    print(render_table(ALL_FIGURES[args.figure_id](_scale(args))))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    _refuse_missing_directory(args.output)
    results = [generator(_scale(args)) for generator in ALL_FIGURES.values()]
    if args.output:
        write_report(results, args.output)
        print(f"report written to {args.output}")
    else:
        for result in results:
            print(render_table(result))
            print()
    return 0


def _command_diagnose(args: argparse.Namespace) -> int:
    suspects = figure17_diagnosis(_scale(args), threshold=args.threshold)
    for scenario, components in suspects.items():
        listed = ", ".join(components) if components else "(none above threshold)"
        print(f"{scenario:16s} -> {listed}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        "rubis",
        clients=args.clients,
        mix=mix_by_name(args.workload),
        workers=(("app", args.max_threads),),
        clock_skew=args.clock_skew,
        **_shared_run_fields(args),
    )
    return _batch_command(args, config)


def _command_simulate(args: argparse.Namespace) -> int:
    """Run one scenario from the topology library and batch-trace it."""
    if args.list:
        if args.json:
            raise ValueError("--json cannot be combined with --list")
        for name in scenario_names():
            print(f"{name:20s} {get_scenario(name).description}")
        return 0
    config = ScenarioConfig(
        scenario=args.scenario,
        clients=args.clients,
        arrival_rate=args.arrival_rate,
        workload_kind=args.workload_kind,
        **_shared_run_fields(args),
    )
    return _batch_command(args, config, get_scenario(args.scenario))


def _batch_command(
    args: argparse.Namespace,
    config: ScenarioConfig,
    scenario: Optional[Scenario] = None,
) -> int:
    """The body ``trace`` and ``simulate`` share: batch-trace ``config``
    and print the report, or the ``--json`` document.  ``simulate`` passes
    its library ``scenario``; the report then also names the scenario, its
    tiers and workload, and counts the path patterns."""
    sampling = _sampling_from_args(args)
    backend = BackendSpec.batch(window=args.window, sampling=sampling)
    store_sink = _store_sink_from_args(args, scenario=config.scenario)
    # A sampled trace is *supposed* to miss requests, so ground-truth
    # path accuracy is replaced by sampled-vs-full report fidelity.
    stages = [SamplingAccuracyStage() if sampling is not None else AccuracyStage()]
    if scenario is None:
        stages.append(ProfileStage("trace"))
    else:
        stages += [ProfileStage(scenario.name), PatternStage()]
    session = Pipeline(
        source=config,
        backend=backend,
        stages=stages,
        sinks=[store_sink] if store_sink is not None else (),
    ).run()
    if args.json:
        extra = {}
        if scenario is not None:
            extra["scenario"] = scenario.name
        if store_sink is not None:
            extra.update(store=args.store, store_run_id=store_sink.run_id)
        print(_session_json(session, args.command, **extra))
        return 0
    run = session.run
    trace = session.trace
    if scenario is not None:
        tier_list = ", ".join(
            f"{tier.name}({tier.role}" + (f" x{tier.replicas})" if tier.replicas > 1 else ")")
            for tier in scenario.topology.front_to_back()
        )
        print(f"scenario                : {scenario.name} -- {scenario.description}")
        print(f"tiers                   : {tier_list}")
        print(f"workload                : {run.workload.kind}")
    print(f"simulated duration      : {run.simulated_duration:.1f} s")
    print(f"requests completed      : {run.completed_requests}")
    print(f"throughput              : {run.throughput:.1f} req/s")
    print(f"mean response time      : {run.mean_response_time * 1000:.1f} ms")
    print(f"activities logged       : {run.total_activities}")
    print(f"causal paths (CAGs)     : {trace.request_count}")
    if scenario is not None:
        print(f"path patterns           : {len(session.analyses['patterns'])}")
    print(f"correlation time        : {trace.correlation_time:.3f} s")
    if sampling is not None:
        _print_sampling_report(session)
    else:
        accuracy = session.analyses["accuracy"]
        print(f"path accuracy           : {accuracy.accuracy * 100:.2f} %")
    profile = session.analyses["profile"]
    width = 16 if scenario is None else 24
    print("latency percentages of the dominant pattern:")
    for label, value in sorted(profile.percentages.items()):
        print(f"  {label:{width}s} {value:6.1f} %")
    if store_sink is not None:
        print(f"stored as run           : {store_sink.run_id} -> {args.store}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    """Drive the online pipeline: source -> streaming backend."""
    # 0 is the flag's spelling of "never evict" (None to BackendSpec), so
    # this one range is the command line's own.
    if args.horizon < 0:
        raise ValueError("--horizon must be non-negative (0 disables eviction)")
    sampling = _sampling_from_args(args)
    store_sink = _store_sink_from_args(
        args, scenario=None if args.input else args.scenario
    )
    # Built before anything is read or simulated, so BackendSpec refuses
    # every bad knob up front.
    backend = BackendSpec.streaming(
        window=args.window,
        horizon=args.horizon or None,
        skew_bound=args.skew_bound,
        chunk_size=args.chunk_size,
        sampling=sampling,
        checkpoint_path=args.checkpoint_path,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume_from,
    )

    # -- source: a log file, or a freshly simulated run ----------------------
    if args.input:
        if not args.frontend:
            raise ValueError("--input requires --frontend IP:PORT")
        try:
            frontend = FrontendSpec.parse(args.frontend)
        except ValueError as exc:
            raise ValueError(f"bad --frontend: {exc}") from None
        if args.noise or args.fault != "none":
            raise ValueError(
                "--noise/--fault shape a simulated run and cannot be "
                "combined with --input"
            )
        # Refuse up front: every path is checked before any stage runs.
        for path in args.input:
            if not os.path.isfile(path):
                raise ValueError(f"--input file not found: {path}")
        source = LogSource(args.input, frontend=frontend)
    else:
        clients = args.clients
        if clients is None and args.scenario == "rubis":
            clients = 100
        config = ScenarioConfig(
            scenario=args.scenario,
            clients=clients,
            **_shared_run_fields(args, up_ramp=1.0),
        )
        source = RunSource(config=config)
        if not args.json:
            if args.scenario == "rubis":
                print(f"== simulating {clients} clients for {args.runtime:.0f} s ==")
            else:
                print(
                    f"== simulating scenario {args.scenario} "
                    f"for {args.runtime:.0f} s =="
                )
        run = source.run  # simulated here, outside the ingestion timer
        if not args.json:
            print(f"requests completed      : {run.completed_requests}")
            print(f"activities logged       : {run.total_activities}")

    # Reading and classification happen inside the drive (the streaming
    # backend pulls the source a chunk at a time), so "wall-clock
    # ingestion" covers them.  The store sink ingests live, at the
    # cadence CAGs finish -- on the incremental driver that means
    # chunk-boundary commits, so a long run persists as it goes (and
    # composes with --checkpoint: ingest is idempotent, so re-emitted
    # CAGs after --resume are no-ops).
    session = Pipeline(source, backend, sinks=[store_sink] if store_sink is not None else ()).run()
    result = session.trace.correlation

    if args.json:
        extra = {}
        if store_sink is not None:
            extra.update(store=args.store, store_run_id=store_sink.run_id)
        print(_session_json(session, "stream", **extra))
        return 0

    stats = result.engine_stats
    evictions = (
        stats.evicted_mmap_entries
        + stats.evicted_cmap_entries
        + stats.evicted_open_cags
    )
    peak_pending = result.peak_state_entries + result.peak_buffered_activities
    print("\n== incremental correlation ==")
    print(f"wall-clock ingestion    : {session.timings.wall_clock_s:.3f} s")
    print(f"activities ingested     : {result.total_activities}")
    print(f"finished paths (CAGs)   : {len(result.cags)}")
    print(f"incomplete paths        : {len(result.incomplete_cags)}")
    print(f"correlation time        : {result.correlation_time:.3f} s")
    rate = result.total_activities / max(result.correlation_time, 1e-9)
    print(f"correlation throughput  : {rate / 1e3:.1f} kact/s")
    print(f"peak live entries       : {peak_pending}")
    print(f"state evictions         : {evictions}")
    if sampling is not None:
        print(f"requests sampled out    : {stats.sampled_out_roots}")
    if session.source.malformed_lines:
        print(f"malformed lines         : {session.source.malformed_lines}")
    if session.source.late_lines:
        print(f"late lines              : {session.source.late_lines}")
    if sampling is None and session.source.ground_truth is not None:
        report = session.accuracy()
        print(f"path accuracy           : {report.accuracy * 100:.2f} %")
    if store_sink is not None:
        print(f"stored as run           : {store_sink.run_id} -> {args.store}")
    return 0


# ---------------------------------------------------------------------------
# `query`: the persistent trace store
# ---------------------------------------------------------------------------

def _open_store(args: argparse.Namespace):
    """Open the store named by ``--store`` read-only-ish, or raise ValueError."""
    from .store import TraceStore

    if not args.store:
        raise ValueError(
            "--store FILE is required (write one with "
            "`precisetracer trace/simulate/stream --store FILE`)"
        )
    return TraceStore.open(args.store)


def _format_stats(row: dict, indent: str = "") -> str:
    if not row.get("count"):
        return f"{indent}(no finished requests)"
    return (
        f"{indent}n={row['count']:<6d} "
        f"p50={row['p50_s'] * 1000:8.2f}ms  "
        f"p90={row['p90_s'] * 1000:8.2f}ms  "
        f"p95={row['p95_s'] * 1000:8.2f}ms  "
        f"p99={row['p99_s'] * 1000:8.2f}ms  "
        f"max={row['max_s'] * 1000:8.2f}ms"
    )


def _query_runs(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        rows = store.runs()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("(store is empty)")
        return 0
    for row in rows:
        state = "finalized" if row["finalized"] else "open"
        print(
            f"{row['run_id']:24s} {state:9s} requests={row['requests']:<6d} "
            f"scenario={row['scenario'] or '-':18s} "
            f"backend={row['backend'] or '-'}"
        )
    return 0


def _query_latency(args: argparse.Namespace) -> int:
    from .store import latency_over_windows

    with _open_store(args) as store:
        rows = latency_over_windows(
            store,
            run_id=args.run,
            pattern=args.pattern,
            scenario=args.scenario,
            since=args.since,
            until=args.until,
            bucket_s=args.bucket,
        )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for row in rows:
        prefix = f"t={row['begin_s']:8.2f}s  " if args.bucket is not None else ""
        print(f"{prefix}{_format_stats(row)}")
    return 0


def _query_patterns(args: argparse.Namespace) -> int:
    from .store import mix_drift, pattern_mix

    with _open_store(args) as store:
        if args.against is not None:
            rows = mix_drift(store, args.run, args.against)
        else:
            rows = pattern_mix(store, args.run)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if args.against is not None:
        for row in rows:
            print(
                f"{row['status']:9s} {row['pattern'][:12]}  "
                f"{row['base_count']:5d} -> {row['current_count']:5d}  "
                f"share {row['base_share'] * 100:5.1f}% -> "
                f"{row['current_share'] * 100:5.1f}% "
                f"({row['share_delta'] * 100:+5.1f} pp)  {row['label']}"
            )
        return 0
    for row in rows:
        print(
            f"{row['pattern'][:12]}  {row['count']:5d} paths "
            f"({row['share'] * 100:5.1f}%)  "
            f"{_format_stats(row)}  {row['label']}"
        )
    return 0


def _query_diff(args: argparse.Namespace) -> int:
    from .store import diff_summaries, load_run_summary, run_summary

    if len(args.runs) != 2:
        raise ValueError(
            "diff needs exactly two runs: a baseline and a candidate "
            "(run ids in --store, or exported run-summary JSON files)"
        )

    def side(token: str):
        # A side naming an existing file (or anything .json) is an
        # exported summary; everything else is a run id in the store.
        if token.endswith(".json") or os.path.exists(token):
            return load_run_summary(token)
        with _open_store(args) as store:
            return run_summary(store, token)

    diff = diff_summaries(
        side(args.runs[0]), side(args.runs[1]), tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps(diff.payload(), indent=2, sort_keys=True))
    else:
        print(diff.describe())
    return 0 if diff.ok else 1


def _query_export(args: argparse.Namespace) -> int:
    from .store import run_summary

    _refuse_missing_directory(args.output)
    with _open_store(args) as store:
        document = run_summary(store, args.run)
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"run summary written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    """Run the differential fuzz sweep; exit 1 when any seed fails."""
    from .fuzz import report_payload, run_fuzz

    _refuse_missing_directory(args.output)

    def progress(case) -> None:
        status = "ok " if case.ok else "FAIL"
        print(
            f"seed {case.seed:8d}  {status}  tiers={case.shape['tiers']:>2}  "
            f"{case.shape['workload']:<11s}  activities={case.activities:>6d}  "
            f"{case.elapsed:.2f}s"
        )

    report = run_fuzz(
        seeds=args.seeds,
        start_seed=args.start_seed,
        window=args.window,
        sampling_rate=args.sampling_rate,
        budget=args.budget,
        shrink_failures=not args.no_shrink,
        on_case=progress,
    )
    print()
    print(report.describe())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report_payload(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"fuzz report written to {args.output}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Entry point: dispatch, and the one converter from refusal to exit 2
# ---------------------------------------------------------------------------

#: A refusal that names a field leads with it (``chunk_size must be ...``).
_FIELD_REFUSAL = re.compile(r"^(\w+)(?= must )")


def _flag_spellings(parser: argparse.ArgumentParser) -> Dict[str, str]:
    """``dest`` -> option string, over ``parser`` and its subcommands
    (no two commands spell one ``dest`` differently)."""
    spellings: Dict[str, str] = {}
    for action in parser._actions:
        if action.option_strings:
            spellings[action.dest] = action.option_strings[0]
        elif isinstance(action.choices, dict):  # a table of subcommands
            for subparser in action.choices.values():
                spellings.update(_flag_spellings(subparser))
    return spellings


def _fail(message: str) -> int:
    """One-line error on stderr, exit status 2 (no traceback)."""
    print(f"precisetracer: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Every refusal -- a value object's, a store's, a file's, or a
        # flag-combination rule above -- leaves as one line and exit 2.
        # The field an owner names is respelled as the flag that set it:
        # "chunk_size must be positive" reads "--chunk-size must be ...".
        spellings = _flag_spellings(parser)
        return _fail(
            _FIELD_REFUSAL.sub(lambda m: spellings.get(m[1], m[1]), str(exc))
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
