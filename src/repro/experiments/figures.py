"""Per-figure data generators for the paper's evaluation (Section 5).

Each figure regenerates the data behind one table or figure of the
paper: it runs the required simulated experiments (memoised through
:mod:`repro.experiments.runner`), traces them with PreciseTracer and
returns a :class:`FigureResult` holding the same rows/series the paper
plots.  Absolute values differ from the 2009 testbed; the *shape* (who
wins, where the knees are, which latency share grows) is the reproduction
target, and EXPERIMENTS.md records the comparison.

A figure is declared, not assembled: a generator function yields its
rows as dicts and :func:`figure` does the rest -- it registers the
function in :data:`ALL_FIGURES` (in declaration order, which is the
order ``report`` prints in), applies :func:`default_scale`, and builds
the :class:`FigureResult`, whose columns are the first row's keys.  Each
column name is therefore written once, where its value is computed.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..baselines.project5 import nesting_algorithm
from ..baselines.wap5 import Wap5Tracer
from ..core.activity import Activity
from ..core.debugging import LatencyProfile
from ..core.interning import ActivityTable
from ..core.tracer import TraceResult
from ..services.faults import FaultConfig
from ..services.noise import NoiseConfig
from ..pipeline import (
    BackendSpec,
    DiagnosisStage,
    Pipeline,
    ProfileStage,
    RunSource,
)
from ..sampling import SamplingSpec, compare_sampled_reports
from ..topology.deployment import TopologyRunResult
from ..topology.library import ScenarioConfig, get_scenario, scenario_names
from ..topology.requests import DEFAULT_MIX, mix_by_name
from .config import ExperimentScale, default_scale
from .runner import RunCache, get_run


@dataclass
class FigureResult:
    """The regenerated data of one table or figure."""

    figure_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> List[object]:
        """One column as a list (handy for assertions in tests/benches)."""
        return [row.get(name) for row in self.rows]

    def series(self, key_column: str, value_column: str) -> Dict[object, object]:
        return {row[key_column]: row[value_column] for row in self.rows}


Row = Dict[str, object]
Rows = Iterator[Row]

#: Every generator, keyed by figure id in report order (used by the CLI
#: and the docs); filled by :func:`figure`.
ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {}


def figure(figure_id: str, title: str, notes: str = ""):
    """Declare a figure: the decorated generator yields the figure's rows.

    The result is the public ``generator(scale=None, cache=None) ->
    FigureResult``, registered under ``figure_id``.  Notes that depend on
    the run (the fuzz figure's) are the generator's ``return`` value,
    which replaces ``notes``.
    """

    def declare(rows_of: Callable[[ExperimentScale, Optional[RunCache]], Rows]):
        @functools.wraps(rows_of)
        def generate(
            scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
        ) -> FigureResult:
            rows: List[Row] = []
            produced = rows_of(scale or default_scale(), cache)
            while True:
                try:
                    rows.append(next(produced))
                except StopIteration as done:
                    columns = list(rows[0]) if rows else []
                    return FigureResult(figure_id, title, columns, rows, done.value or notes)

        ALL_FIGURES[figure_id] = generate
        return generate

    return declare


def _run(
    scale: ExperimentScale,
    cache: Optional[RunCache],
    scenario: str = "rubis",
    **overrides,
) -> TopologyRunResult:
    """The (memoised) run of ``scenario`` at ``scale`` with ``overrides``;
    RUBiS is the paper's deployment and Browse_Only mix."""
    config = ScenarioConfig(
        scenario, stages=scale.stages, clock_skew=scale.clock_skew, seed=scale.seed
    )
    return get_run(config.with_overrides(**overrides), cache)


#: The latency segments Figs. 15 and 17 break a request down into.
SEGMENTS = (
    "httpd2httpd",
    "httpd2java",
    "java2httpd",
    "java2java",
    "java2mysqld",
    "mysqld2java",
    "mysqld2mysqld",
)


def _segment_shares(trace: TraceResult, label: str) -> Row:
    """The dominant pattern's latency percentage per segment."""
    percentages = trace.profile(label).percentages
    return {segment: round(percentages.get(segment, 0.0), 1) for segment in SEGMENTS}


def _window_sweep(scale: ExperimentScale, cache: Optional[RunCache]):
    """``(clients, window, run)`` over the window-sweep grid (Figs. 10, 11)."""
    for clients in scale.window_clients:
        run = _run(scale, cache, clients=clients)
        for window in scale.windows:
            yield clients, window, run


# ---------------------------------------------------------------------------
# Section 5.2 -- accuracy
# ---------------------------------------------------------------------------


@figure("sec5.2", "Path accuracy of PreciseTracer (paper: 100% everywhere)")
def accuracy_table(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Path accuracy across workloads, client counts, windows, skews and noise.

    The paper reports 100 % accuracy (no false positives, no false
    negatives) for every combination it tried; this table re-checks the
    same claim on the simulated testbed.
    """
    for workload in scale.accuracy_workloads:
        for clients in scale.accuracy_clients:
            for skew in scale.accuracy_skews:
                for noisy in (False, True):
                    noise = NoiseConfig.paper_noise(scale=0.3) if noisy else NoiseConfig.quiet()
                    run = _run(
                        scale,
                        cache,
                        mix=mix_by_name(workload),
                        clients=clients,
                        clock_skew=skew,
                        noise=noise,
                    )
                    for window in scale.accuracy_windows:
                        report = run.trace(window=window).accuracy(run.ground_truth)
                        yield {
                            "workload": workload,
                            "clients": clients,
                            "window_s": window,
                            "clock_skew_s": skew,
                            "noise": noisy,
                            "requests": report.total_requests,
                            "accuracy": report.accuracy,
                            "false_positives": report.false_positives,
                            "false_negatives": report.false_negatives,
                        }


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 -- requests vs clients, correlation time vs requests
# ---------------------------------------------------------------------------


@figure("fig8", "Requests vs. concurrent clients (Browse_Only, MaxThreads=40)")
def figure8(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 8: serviced requests vs. concurrent clients (Browse_Only).

    Linear growth until the service saturates (the paper's knee is around
    800 clients with ``MaxThreads = 40``)."""
    for clients in scale.client_series:
        run = _run(scale, cache, clients=clients)
        yield {
            "clients": clients,
            "requests": run.completed_requests,
            "throughput_rps": round(run.throughput, 2),
        }


@figure("fig9", "Correlation time vs. requests (window = 10 ms)")
def figure9(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 9: correlation time vs. number of serviced requests.

    The paper observes linear scaling (window fixed at 10 ms)."""
    for clients in scale.client_series:
        run = _run(scale, cache, clients=clients)
        # Median of three timed traces per point: a single cold run mixes
        # interpreter warm-up into the smallest points.
        traces = [run.trace(window=0.010) for _ in range(3)]
        trace = sorted(traces, key=lambda t: t.correlation_time)[1]
        yield {
            "clients": clients,
            "requests": trace.request_count,
            "activities": run.total_activities,
            "correlation_time_s": round(trace.correlation_time, 4),
        }


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 11 -- sliding-window sweeps (Fig. 11 also in streaming mode)
# ---------------------------------------------------------------------------


@figure("fig10", "Correlation time vs. sliding time window")
def figure10(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 10: correlation time vs. sliding-window size per client count."""
    for clients, window, run in _window_sweep(scale, cache):
        yield {
            "clients": clients,
            "window_s": window,
            "correlation_time_s": round(run.trace(window=window).correlation_time, 4),
        }


@figure("fig11", "Correlator memory vs. sliding time window")
def figure11(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 11: Correlator memory consumption vs. sliding-window size."""
    for clients, window, run in _window_sweep(scale, cache):
        trace = run.trace(window=window)
        yield {
            "clients": clients,
            "window_s": window,
            "peak_memory_mb": round(trace.peak_memory_bytes / 1e6, 3),
            "peak_buffered_activities": trace.correlation.peak_buffered_activities,
        }


#: Eviction horizon used by the streaming reruns, in seconds.  Far above
#: any simulated response time, so accuracy is untouched; small enough to
#: demonstrate bounded state on long runs.
STREAMING_HORIZON = 5.0


def _stream(run: TopologyRunResult, window: float) -> TraceResult:
    """``run`` traced by the streaming backend at :data:`STREAMING_HORIZON`,
    with a skew bound derived from the run's own configured clock skew."""
    backend = BackendSpec.streaming(
        window=window, horizon=STREAMING_HORIZON, skew_bound=max(2 * run.clock_skew, 1e-4)
    )
    return backend.trace(run.activities())


@figure(
    "fig11s",
    "Correlator memory: batch vs. streaming (watermark eviction)",
    notes=f"streaming horizon = {STREAMING_HORIZON} s",
)
def figure11_streaming(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 11 rerun in streaming mode: batch vs. incremental memory.

    The batch correlator's working set holds the whole trace plus every
    index-map entry it ever created; the incremental correlator keeps only
    the in-window ranker buffer and the watermark-bounded engine state, so
    its peak live-entry count stays roughly flat as the trace grows."""
    for clients, window, run in _window_sweep(scale, cache):
        batch = run.trace(window=window)
        stream = _stream(run, window)
        stats = stream.correlation.engine_stats
        yield {
            "clients": clients,
            "window_s": window,
            "batch_peak_entries": batch.correlation.peak_buffered_activities
            + batch.correlation.peak_state_entries,
            "stream_peak_entries": stream.correlation.peak_buffered_activities
            + stream.correlation.peak_state_entries,
            "stream_evictions": stats.evicted_mmap_entries
            + stats.evicted_cmap_entries
            + stats.evicted_open_cags,
            # count equality only -- full CAG identity is asserted
            # structurally by tests/test_stream.py
            "same_request_count": stream.request_count == batch.request_count,
        }


# ---------------------------------------------------------------------------
# Fig. 12 / Fig. 13 -- instrumentation overhead (Fig. 12 also for analysis)
# ---------------------------------------------------------------------------


def _tracing_overhead(
    scale: ExperimentScale,
    cache: Optional[RunCache],
    column: str,
    read: Callable[[TopologyRunResult], float],
    higher_is_better: bool,
) -> Rows:
    """One service metric with tracing disabled and enabled per client
    count (``column`` names it, ``{}`` standing for the setting), and the
    overhead: how much worse enabled reads, in percent of disabled."""
    for clients in scale.client_series:
        disabled, enabled = (
            round(read(_run(scale, cache, clients=clients, tracing_enabled=on)), 2)
            for on in (False, True)
        )
        base = disabled or 1e-9
        worse = base - enabled if higher_is_better else enabled - base
        yield {
            "clients": clients,
            column.format("disabled"): disabled,
            column.format("enabled"): enabled,
            "overhead_pct": round(100.0 * worse / base, 2),
        }


@figure("fig12", "Effect of tracing on throughput")
def figure12(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 12: throughput with tracing enabled vs. disabled.

    The paper reports a maximum throughput degradation of 3.7 %."""
    return _tracing_overhead(
        scale, cache, "throughput_{}_rps", lambda run: run.throughput, higher_is_better=True
    )


@figure("fig12s", "Correlation throughput: batch vs. streaming")
def figure12_streaming(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 12 companion: correlation throughput of the two drivers.

    Where Fig. 12 measures the *instrumentation* overhead on the traced
    service, this table measures the *analysis* side: how many logged
    activities per second the batch and streaming correlators sustain,
    i.e. how much live traffic an online deployment could keep up with."""
    for clients in scale.client_series:
        run = _run(scale, cache, clients=clients)
        total = run.total_activities
        batch, stream = run.trace(window=scale.window), _stream(run, scale.window)
        yield {
            "clients": clients,
            "activities": total,
            "batch_kact_s": round(total / max(batch.correlation_time, 1e-9) / 1e3, 1),
            "stream_kact_s": round(total / max(stream.correlation_time, 1e-9) / 1e3, 1),
        }


@figure("fig13", "Effect of tracing on average response time")
def figure13(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 13: average response time with tracing enabled vs. disabled.

    The paper reports a maximum response-time increase below 30 %."""
    return _tracing_overhead(
        scale,
        cache,
        "response_time_{}_ms",
        lambda run: run.mean_response_time * 1000,
        higher_is_better=False,
    )


# ---------------------------------------------------------------------------
# Fig. 14 -- noise tolerance
# ---------------------------------------------------------------------------


@figure("fig14", "Correlation time with and without noise (window = 2 ms)")
def figure14(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 14: correlation time with and without coexisting noise traffic.

    Noise from ssh/rlogin is filtered by program name; mysql-client noise
    is discarded by ``is_noise``.  Accuracy stays at 100 % and the extra
    correlation time stays moderate."""
    for clients in scale.noise_clients:
        quiet = _run(scale, cache, clients=clients)
        noisy = _run(scale, cache, clients=clients, noise=NoiseConfig.paper_noise())
        quiet_trace = quiet.trace(window=scale.noise_window)
        noisy_trace = noisy.trace(window=scale.noise_window)
        accuracy = noisy_trace.accuracy(noisy.ground_truth).accuracy
        yield {
            "clients": clients,
            "correlation_time_no_noise_s": round(quiet_trace.correlation_time, 4),
            "correlation_time_noise_s": round(noisy_trace.correlation_time, 4),
            "noise_activities": noisy.noise_activities,
            "accuracy_with_noise": round(accuracy, 4),
        }


# ---------------------------------------------------------------------------
# Fig. 15 / Fig. 16 -- the MaxThreads misconfiguration
# ---------------------------------------------------------------------------


@figure("fig15", "Latency percentages of components (MaxThreads=40)")
def figure15(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 15: latency percentages of the dominant pattern vs. client count.

    With ``MaxThreads = 40`` the share of the httpd->java interaction grows
    dramatically as the thread pool saturates (the paper's
    misconfiguration-shooting example, based on ViewItem)."""
    for clients in scale.fig15_clients:
        run = _run(scale, cache, clients=clients, workers=(("app", 40),))
        trace = run.trace(window=scale.window)
        yield {"clients": clients, **_segment_shares(trace, f"clients={clients}")}


@figure("fig16", "Performance for different MaxThreads")
def figure16(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 16: throughput and response time for MaxThreads 40 vs. 250.

    Raising MaxThreads removes the thread-pool bottleneck; beyond ~900
    clients a hardware/database limit becomes the new bottleneck."""
    for clients in scale.client_series:
        run40 = _run(scale, cache, clients=clients, workers=(("app", 40),))
        run250 = _run(scale, cache, clients=clients, workers=(("app", 250),))
        yield {
            "clients": clients,
            "tp_mt40_rps": round(run40.throughput, 2),
            "tp_mt250_rps": round(run250.throughput, 2),
            "rt_mt40_ms": round(run40.mean_response_time * 1000, 2),
            "rt_mt250_ms": round(run250.mean_response_time * 1000, 2),
        }


# ---------------------------------------------------------------------------
# Fig. 17 -- injected performance problems
# ---------------------------------------------------------------------------

FAULT_SCENARIOS: Dict[str, FaultConfig] = {
    "normal": FaultConfig.none(),
    "EJB_Delay": FaultConfig.ejb_delay_case(),
    "Database_Lock": FaultConfig.database_lock_case(),
    "EJB_Network": FaultConfig.ejb_network_case(),
}


def _fault_runs(scale: ExperimentScale, cache: Optional[RunCache]):
    """``(name, run)`` per :data:`FAULT_SCENARIOS` entry (default mix)."""
    for name, faults in FAULT_SCENARIOS.items():
        yield name, _run(
            scale, cache, clients=scale.fault_clients, mix=DEFAULT_MIX, faults=faults
        )


@figure("fig17", "Latency percentages for injected performance problems")
def figure17(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Fig. 17: latency percentages for the normal case and three faults."""
    for name, run in _fault_runs(scale, cache):
        trace = run.trace(window=scale.window)
        yield {
            "scenario": name,
            **_segment_shares(trace, name),
            "mean_response_time_ms": round(run.mean_response_time * 1000, 1),
        }


def figure17_diagnosis(
    scale: Optional[ExperimentScale] = None,
    cache: Optional[RunCache] = None,
    threshold: float = 5.0,
) -> Dict[str, List[str]]:
    """Which components PreciseTracer implicates for each injected fault.

    A companion to Fig. 17: runs each fault scenario through the pipeline
    facade (batch backend + :class:`~repro.pipeline.ProfileStage` +
    :class:`~repro.pipeline.DiagnosisStage` against the healthy profile)
    and returns the suspected components per scenario (the paper's
    conclusions are JBoss, MySQL and the JBoss node's network
    respectively)."""
    scale = scale or default_scale()
    sessions = {
        name: Pipeline(
            source=RunSource(run=run),
            backend=BackendSpec.batch(window=scale.window),
            stages=[ProfileStage(name)],
        ).run()
        for name, run in _fault_runs(scale, cache)
    }
    reference: LatencyProfile = sessions.pop("normal").analyses["profile"]
    suspects: Dict[str, List[str]] = {}
    for name, session in sessions.items():
        stage = DiagnosisStage(reference, threshold=threshold, label=name)
        suspects[name] = stage.run(session).suspected_components()
    return suspects


# ---------------------------------------------------------------------------
# Extra: probabilistic-baseline comparison
# ---------------------------------------------------------------------------


@figure("baselines", "Path accuracy: PreciseTracer vs. probabilistic baselines")
def baseline_comparison(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """PreciseTracer vs. WAP5-style and Project5-style baselines.

    Not a figure of the paper, but a quantitative version of its Section 6
    argument: probabilistic correlation loses precision as concurrency
    rises, while PreciseTracer stays at 100 %."""
    wap5 = Wap5Tracer()
    for clients in scale.baseline_clients:
        run = _run(scale, cache, clients=clients)
        activities = run.activities()
        precise = run.trace(window=scale.window).accuracy(run.ground_truth).accuracy
        yield {
            "clients": clients,
            "precisetracer": round(precise, 4),
            "wap5_style": round(wap5.path_accuracy(activities, run.ground_truth), 4),
            "project5_style": round(
                nesting_algorithm(activities).path_accuracy(run.ground_truth), 4
            ),
        }


# ---------------------------------------------------------------------------
# Extra: accuracy across the scenario library
# ---------------------------------------------------------------------------


@figure("scenarios", "Path accuracy across the scenario library (window = 10 ms)")
def scenario_accuracy(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Path accuracy across the whole scenario library.

    Not a figure of the paper -- the paper validates on one deployment
    (Fig. 7) -- but its natural generalisation: the same 100 %-accuracy
    claim re-checked on every topology of the library (deep chains,
    fan-out/join, cache-aside, replication behind a load balancer) under
    each scenario's own workload shape (closed, open-loop Poisson,
    bursty)."""
    for name in scenario_names():
        run = _run(scale, cache, scenario=name)
        trace = run.trace(window=scale.window)
        report = trace.accuracy(run.ground_truth)
        yield {
            "scenario": name,
            "workload": run.workload.kind,
            "tiers": sum(tier.replicas for tier in get_scenario(name).topology.tiers),
            "requests": report.total_requests,
            "activities": run.total_activities,
            "patterns": len(trace.patterns()),
            "accuracy": report.accuracy,
            "false_positives": report.false_positives,
            "false_negatives": report.false_negatives,
        }


# ---------------------------------------------------------------------------
# Extra: overhead control -- accuracy and cost vs. sampling rate
# ---------------------------------------------------------------------------


@figure(
    "sampling",
    "Request sampling: accuracy and correlation cost vs. rate",
    notes=(
        "uniform root-hash sampling, batch backend; time_vs_full and "
        "state_vs_full are ratios against the same trace unsampled"
    ),
)
def figure_sampling(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Overhead control: what request sampling costs and what it buys.

    Sweeps the uniform sampling rate across the scenario library and
    reports, per (scenario, rate) point, the realised sample fraction,
    the correlation time and engine state relative to the full trace,
    and the analytical fidelity of the sampled ranked latency report
    (pattern coverage, dominant-profile drift -- see
    :mod:`repro.sampling.accuracy`).  Not a figure of the paper: the
    2009 system bounds overhead by splitting correlation across
    machines; per-request sampling is the complementary axis its
    *precise* (non-probabilistic) correlation uniquely enables.

    Rate 1.0 is included as the in-band baseline: every metric there
    must read "identical to full", which doubles as a self-check.
    """
    for name in scale.sampling_scenarios:
        source = RunSource(run=_run(scale, cache, scenario=name))
        full = BackendSpec.batch(window=scale.window).correlate(source.activities())
        full_time = max(full.correlation_time, 1e-9)
        full_state = max(full.peak_state_entries, 1)
        for rate in scale.sampling_rates:
            spec = BackendSpec.batch(window=scale.window, sampling=SamplingSpec.uniform(rate))
            sampled = spec.correlate(source.activities())
            fidelity = compare_sampled_reports(full.cags, sampled.cags)
            drift = fidelity.dominant_profile_distance
            yield {
                "scenario": name,
                "rate": rate,
                "requests_full": len(full.cags),
                "requests_sampled": len(sampled.cags),
                "sample_fraction": round(fidelity.sample_fraction, 4),
                "pattern_coverage": round(fidelity.pattern_coverage, 4),
                "profile_drift_pp": None if drift is None else round(drift, 3),
                "correlation_time_s": round(sampled.correlation_time, 4),
                "time_vs_full": round(sampled.correlation_time / full_time, 3),
                "state_vs_full": round(sampled.peak_state_entries / full_state, 3),
            }


@figure("fuzz", "Differential fuzzing: invariant coverage per generated seed")
def figure_fuzz(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Differential fuzzing: generated scenarios vs the invariant stack.

    Not a figure of the paper but of the reproduction's own test rig:
    ``scale.fuzz_seeds`` consecutive generated scenarios
    (:mod:`repro.topology.generator`) are each driven through the full
    invariant stack (:mod:`repro.fuzz`), and the rows record what each
    seed exercised and what it cost -- so the BENCH trajectory shows
    both the shapes covered and the seconds-per-seed trend over time.
    The ``cache`` parameter is accepted for generator-signature
    uniformity; fuzz cases are never memoised (each seed is its own
    run).
    """
    from ..fuzz import run_fuzz

    report = run_fuzz(
        seeds=scale.fuzz_seeds,
        window=scale.window,
        sampling_rate=scale.fuzz_sampling_rate,
    )
    for case in report.cases:
        yield {
            "seed": case.seed,
            "tiers": case.shape["tiers"],
            "patterns": "+".join(sorted(case.shape["patterns"])),
            "workload": case.shape["workload"],
            "replicated": case.shape["replicated"],
            "request_types": case.shape["request_types"],
            "activities": case.activities,
            "requests": case.requests,
            "spliced_receives": case.spliced_receives,
            "violations": len(case.violations),
            "seconds": round(case.elapsed, 4),
        }
    coverage = report.coverage()
    return (
        f"{report.seeds_run} seeds, {len(report.failures)} failing, "
        f"{report.seconds_per_seed():.2f} s/seed; covered "
        f"patterns={'/'.join(coverage['patterns'])} "
        f"workloads={'/'.join(coverage['workloads'])} "
        f"tiers={coverage['tiers_min']}..{coverage['tiers_max']}"
    )


# ---------------------------------------------------------------------------
# Columnar core -- object list vs ActivityTable memory
# ---------------------------------------------------------------------------


def _count_live_activities() -> int:
    """Number of :class:`Activity` instances currently alive (gc scan)."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Activity))


@figure(
    "interning",
    "Activity storage: object list vs columnar ActivityTable",
    notes=(
        "tracemalloc retained bytes of each representation built from "
        "the same trace; live counts are Activity instances alive after "
        "the build (gc scan)."
    ),
)
def figure_interning(scale: ExperimentScale, cache: Optional[RunCache]) -> Rows:
    """Memory of the two activity representations, per client count.

    For each trace the classified activities are held first as a plain
    Python list of :class:`Activity` objects, then packed into a columnar
    :class:`~repro.core.interning.ActivityTable` (the object list is
    released).  ``tracemalloc`` reports the bytes each representation
    retains; the gc scan reports how many ``Activity`` instances stay
    alive -- the table keeps none.  Rows become objects only while the
    ranker delivers them to the engine, and a finished CAG packs its
    vertices back into rows, keeping its root and END as the only
    objects of a request (``repro.core.cag.VertexRows``), which is the
    point of the columnar core.
    """
    for clients in scale.window_clients:
        run = _run(scale, cache, clients=clients)
        # collect first: garbage left over from earlier figures would
        # inflate the baseline and undercount the object list's share
        gc.collect()
        baseline_live = _count_live_activities()
        tracemalloc.start()
        objects = run.activities()
        gc.collect()
        object_bytes, _ = tracemalloc.get_traced_memory()
        object_live = _count_live_activities() - baseline_live
        table = ActivityTable.from_activities(objects)
        count = len(objects)
        del objects
        gc.collect()
        columnar_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        columnar_live = _count_live_activities() - baseline_live
        del table
        yield {
            "clients": clients,
            "activities": count,
            "object_kb": round(object_bytes / 1024, 1),
            "object_bytes_per_activity": round(object_bytes / count, 1),
            "object_live_activities": object_live,
            "columnar_kb": round(columnar_bytes / 1024, 1),
            "columnar_bytes_per_activity": round(columnar_bytes / count, 1),
            "columnar_live_activities": columnar_live,
            "retained_ratio": round(object_bytes / columnar_bytes, 2),
        }
