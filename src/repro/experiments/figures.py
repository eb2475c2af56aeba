"""Per-figure data generators for the paper's evaluation (Section 5).

Each function regenerates the data behind one table or figure of the
paper: it runs the required simulated experiments (memoised through
:mod:`repro.experiments.runner`), traces them with PreciseTracer and
returns a :class:`FigureResult` holding the same rows/series the paper
plots.  Absolute values differ from the 2009 testbed; the *shape* (who
wins, where the knees are, which latency share grows) is the reproduction
target, and EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.project5 import nesting_algorithm
from ..baselines.wap5 import Wap5Tracer
from ..core.activity import Activity
from ..core.debugging import LatencyProfile
from ..core.interning import ActivityTable
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
from ..topology.library import ScenarioConfig, get_scenario, scenario_names
from ..topology.requests import DEFAULT_MIX, mix_by_name
from .config import ExperimentScale, default_scale
from .runner import RunCache, get_run, stream_trace


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


def _base_config(scale: ExperimentScale, **overrides) -> ScenarioConfig:
    """A RUBiS run at ``scale``: the paper's deployment and Browse_Only mix."""
    config = ScenarioConfig(
        "rubis",
        stages=scale.stages,
        clock_skew=scale.clock_skew,
        seed=scale.seed,
    )
    return config.with_overrides(**overrides) if overrides else config

# ---------------------------------------------------------------------------
# Section 5.2 -- accuracy
# ---------------------------------------------------------------------------

def accuracy_table(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Path accuracy across workloads, client counts, windows, skews and noise.

    The paper reports 100 % accuracy (no false positives, no false
    negatives) for every combination it tried; this table re-checks the
    same claim on the simulated testbed.
    """
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="sec5.2",
        title="Path accuracy of PreciseTracer (paper: 100% everywhere)",
        columns=[
            "workload",
            "clients",
            "window_s",
            "clock_skew_s",
            "noise",
            "requests",
            "accuracy",
            "false_positives",
            "false_negatives",
        ],
    )
    for workload in scale.accuracy_workloads:
        for clients in scale.accuracy_clients:
            for skew in scale.accuracy_skews:
                for noisy in (False, True):
                    noise = NoiseConfig.paper_noise(scale=0.3) if noisy else NoiseConfig.quiet()
                    config = _base_config(
                        scale,
                        mix=mix_by_name(workload),
                        clients=clients,
                        clock_skew=skew,
                        noise=noise,
                    )
                    run = get_run(config, cache)
                    for window in scale.accuracy_windows:
                        trace = run.trace(window=window)
                        report = trace.accuracy(run.ground_truth)
                        result.rows.append(
                            {
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
                        )
    return result


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 -- requests vs clients, correlation time vs requests
# ---------------------------------------------------------------------------

def figure8(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 8: serviced requests vs. concurrent clients (Browse_Only).

    Linear growth until the service saturates (the paper's knee is around
    800 clients with ``MaxThreads = 40``)."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig8",
        title="Requests vs. concurrent clients (Browse_Only, MaxThreads=40)",
        columns=["clients", "requests", "throughput_rps"],
    )
    for clients in scale.client_series:
        run = get_run(_base_config(scale, clients=clients), cache)
        result.rows.append(
            {
                "clients": clients,
                "requests": run.completed_requests,
                "throughput_rps": round(run.throughput, 2),
            }
        )
    return result


def figure9(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 9: correlation time vs. number of serviced requests.

    The paper observes linear scaling (window fixed at 10 ms)."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig9",
        title="Correlation time vs. requests (window = 10 ms)",
        columns=["clients", "requests", "activities", "correlation_time_s"],
    )
    for clients in scale.client_series:
        run = get_run(_base_config(scale, clients=clients), cache)
        # Median of three timed traces per point: a single cold run mixes
        # interpreter warm-up into the smallest points, and the committed
        # baselines are medians too -- comparisons should be like-for-like.
        traces = [run.trace(window=0.010) for _ in range(3)]
        trace = sorted(traces, key=lambda t: t.correlation_time)[1]
        result.rows.append(
            {
                "clients": clients,
                "requests": trace.request_count,
                "activities": run.total_activities,
                "correlation_time_s": round(trace.correlation_time, 4),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 11 -- sliding-window sweeps
# ---------------------------------------------------------------------------

def figure10(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 10: correlation time vs. sliding-window size per client count."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig10",
        title="Correlation time vs. sliding time window",
        columns=["clients", "window_s", "correlation_time_s"],
    )
    for clients in scale.window_clients:
        run = get_run(_base_config(scale, clients=clients), cache)
        for window in scale.windows:
            trace = run.trace(window=window)
            result.rows.append(
                {
                    "clients": clients,
                    "window_s": window,
                    "correlation_time_s": round(trace.correlation_time, 4),
                }
            )
    return result


def figure11(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 11: Correlator memory consumption vs. sliding-window size."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig11",
        title="Correlator memory vs. sliding time window",
        columns=["clients", "window_s", "peak_memory_mb", "peak_buffered_activities"],
    )
    for clients in scale.window_clients:
        run = get_run(_base_config(scale, clients=clients), cache)
        for window in scale.windows:
            trace = run.trace(window=window)
            result.rows.append(
                {
                    "clients": clients,
                    "window_s": window,
                    "peak_memory_mb": round(trace.peak_memory_bytes / 1e6, 3),
                    "peak_buffered_activities": trace.correlation.peak_buffered_activities,
                }
            )
    return result


# ---------------------------------------------------------------------------
# Fig. 12 / Fig. 13 -- instrumentation overhead
# ---------------------------------------------------------------------------

def _overhead_rows(
    scale: ExperimentScale, cache: Optional[RunCache]
) -> List[Dict[str, object]]:
    rows = []
    for clients in scale.client_series:
        enabled = get_run(_base_config(scale, clients=clients, tracing_enabled=True), cache)
        disabled = get_run(_base_config(scale, clients=clients, tracing_enabled=False), cache)
        rows.append(
            {
                "clients": clients,
                "throughput_disabled_rps": round(disabled.throughput, 2),
                "throughput_enabled_rps": round(enabled.throughput, 2),
                "response_time_disabled_ms": round(disabled.mean_response_time * 1000, 2),
                "response_time_enabled_ms": round(enabled.mean_response_time * 1000, 2),
            }
        )
    return rows


def figure12(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 12: throughput with tracing enabled vs. disabled.

    The paper reports a maximum throughput degradation of 3.7 %."""
    scale = scale or default_scale()
    rows = _overhead_rows(scale, cache)
    result = FigureResult(
        figure_id="fig12",
        title="Effect of tracing on throughput",
        columns=["clients", "throughput_disabled_rps", "throughput_enabled_rps", "overhead_pct"],
    )
    for row in rows:
        disabled = float(row["throughput_disabled_rps"]) or 1e-9
        overhead = 100.0 * (disabled - float(row["throughput_enabled_rps"])) / disabled
        result.rows.append(
            {
                "clients": row["clients"],
                "throughput_disabled_rps": row["throughput_disabled_rps"],
                "throughput_enabled_rps": row["throughput_enabled_rps"],
                "overhead_pct": round(overhead, 2),
            }
        )
    return result


def figure13(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 13: average response time with tracing enabled vs. disabled.

    The paper reports a maximum response-time increase below 30 %."""
    scale = scale or default_scale()
    rows = _overhead_rows(scale, cache)
    result = FigureResult(
        figure_id="fig13",
        title="Effect of tracing on average response time",
        columns=[
            "clients",
            "response_time_disabled_ms",
            "response_time_enabled_ms",
            "overhead_pct",
        ],
    )
    for row in rows:
        disabled = float(row["response_time_disabled_ms"]) or 1e-9
        overhead = 100.0 * (float(row["response_time_enabled_ms"]) - disabled) / disabled
        result.rows.append(
            {
                "clients": row["clients"],
                "response_time_disabled_ms": row["response_time_disabled_ms"],
                "response_time_enabled_ms": row["response_time_enabled_ms"],
                "overhead_pct": round(overhead, 2),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 14 -- noise tolerance
# ---------------------------------------------------------------------------

def figure14(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 14: correlation time with and without coexisting noise traffic.

    Noise from ssh/rlogin is filtered by program name; mysql-client noise
    is discarded by ``is_noise``.  Accuracy stays at 100 % and the extra
    correlation time stays moderate."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig14",
        title="Correlation time with and without noise (window = 2 ms)",
        columns=[
            "clients",
            "correlation_time_no_noise_s",
            "correlation_time_noise_s",
            "noise_activities",
            "accuracy_with_noise",
        ],
    )
    for clients in scale.noise_clients:
        quiet = get_run(_base_config(scale, clients=clients), cache)
        noisy = get_run(
            _base_config(scale, clients=clients, noise=NoiseConfig.paper_noise()), cache
        )
        quiet_trace = quiet.trace(window=scale.noise_window)
        noisy_trace = noisy.trace(window=scale.noise_window)
        accuracy = noisy_trace.accuracy(noisy.ground_truth).accuracy
        result.rows.append(
            {
                "clients": clients,
                "correlation_time_no_noise_s": round(quiet_trace.correlation_time, 4),
                "correlation_time_noise_s": round(noisy_trace.correlation_time, 4),
                "noise_activities": noisy.noise_activities,
                "accuracy_with_noise": round(accuracy, 4),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 15 / Fig. 16 -- the MaxThreads misconfiguration
# ---------------------------------------------------------------------------

def figure15(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 15: latency percentages of the dominant pattern vs. client count.

    With ``MaxThreads = 40`` the share of the httpd->java interaction grows
    dramatically as the thread pool saturates (the paper's
    misconfiguration-shooting example, based on ViewItem)."""
    scale = scale or default_scale()
    segments = [
        "httpd2httpd",
        "httpd2java",
        "java2httpd",
        "java2java",
        "java2mysqld",
        "mysqld2java",
        "mysqld2mysqld",
    ]
    result = FigureResult(
        figure_id="fig15",
        title="Latency percentages of components (MaxThreads=40)",
        columns=["clients"] + segments,
    )
    for clients in scale.fig15_clients:
        run = get_run(_base_config(scale, clients=clients, workers=(("app", 40),)), cache)
        trace = run.trace(window=scale.window)
        profile = trace.profile(f"clients={clients}")
        percentages = profile.percentages
        row: Dict[str, object] = {"clients": clients}
        for segment in segments:
            row[segment] = round(percentages.get(segment, 0.0), 1)
        result.rows.append(row)
    return result


def figure16(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 16: throughput and response time for MaxThreads 40 vs. 250.

    Raising MaxThreads removes the thread-pool bottleneck; beyond ~900
    clients a hardware/database limit becomes the new bottleneck."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig16",
        title="Performance for different MaxThreads",
        columns=["clients", "tp_mt40_rps", "tp_mt250_rps", "rt_mt40_ms", "rt_mt250_ms"],
    )
    for clients in scale.client_series:
        run40 = get_run(_base_config(scale, clients=clients, workers=(("app", 40),)), cache)
        run250 = get_run(_base_config(scale, clients=clients, workers=(("app", 250),)), cache)
        result.rows.append(
            {
                "clients": clients,
                "tp_mt40_rps": round(run40.throughput, 2),
                "tp_mt250_rps": round(run250.throughput, 2),
                "rt_mt40_ms": round(run40.mean_response_time * 1000, 2),
                "rt_mt250_ms": round(run250.mean_response_time * 1000, 2),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 17 -- injected performance problems
# ---------------------------------------------------------------------------

FAULT_SCENARIOS: Dict[str, FaultConfig] = {
    "normal": FaultConfig.none(),
    "EJB_Delay": FaultConfig.ejb_delay_case(),
    "Database_Lock": FaultConfig.database_lock_case(),
    "EJB_Network": FaultConfig.ejb_network_case(),
}


def figure17(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 17: latency percentages for the normal case and three faults."""
    scale = scale or default_scale()
    segments = [
        "httpd2httpd",
        "httpd2java",
        "java2httpd",
        "java2java",
        "java2mysqld",
        "mysqld2java",
        "mysqld2mysqld",
    ]
    result = FigureResult(
        figure_id="fig17",
        title="Latency percentages for injected performance problems",
        columns=["scenario"] + segments + ["mean_response_time_ms"],
    )
    for name, faults in FAULT_SCENARIOS.items():
        config = _base_config(
            scale,
            clients=scale.fault_clients,
            mix=DEFAULT_MIX,
            faults=faults,
        )
        run = get_run(config, cache)
        trace = run.trace(window=scale.window)
        profile = trace.profile(name)
        percentages = profile.percentages
        row: Dict[str, object] = {"scenario": name}
        for segment in segments:
            row[segment] = round(percentages.get(segment, 0.0), 1)
        row["mean_response_time_ms"] = round(run.mean_response_time * 1000, 1)
        result.rows.append(row)
    return result


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
    sessions = {}
    for name, faults in FAULT_SCENARIOS.items():
        config = _base_config(
            scale, clients=scale.fault_clients, mix=DEFAULT_MIX, faults=faults
        )
        pipeline = Pipeline(
            source=RunSource(config=config, cache=cache),
            backend=BackendSpec.batch(window=scale.window),
            stages=[ProfileStage(name)],
        )
        sessions[name] = pipeline.run()
    reference: LatencyProfile = sessions["normal"].analyses["profile"]
    suspects: Dict[str, List[str]] = {}
    for name, session in sessions.items():
        if name == "normal":
            continue
        stage = DiagnosisStage(reference, threshold=threshold, label=name)
        suspects[name] = stage.run(session).suspected_components()
    return suspects


# ---------------------------------------------------------------------------
# Extra: Fig. 11 / Fig. 12 rerun in streaming mode
# ---------------------------------------------------------------------------

#: Eviction horizon used by the streaming reruns, in seconds.  Far above
#: any simulated response time, so accuracy is untouched; small enough to
#: demonstrate bounded state on long runs.
STREAMING_HORIZON = 5.0


def figure11_streaming(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 11 rerun in streaming mode: batch vs. incremental memory.

    The batch correlator's working set holds the whole trace plus every
    index-map entry it ever created; the incremental correlator keeps only
    the in-window ranker buffer and the watermark-bounded engine state, so
    its peak live-entry count stays roughly flat as the trace grows."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig11s",
        title="Correlator memory: batch vs. streaming (watermark eviction)",
        columns=[
            "clients",
            "window_s",
            "batch_peak_entries",
            "stream_peak_entries",
            "stream_evictions",
            "same_request_count",
        ],
        notes=f"streaming horizon = {STREAMING_HORIZON} s",
    )
    for clients in scale.window_clients:
        run = get_run(_base_config(scale, clients=clients), cache)
        for window in scale.windows:
            batch = run.trace(window=window)
            stream = stream_trace(run, window=window, horizon=STREAMING_HORIZON)
            stats = stream.correlation.engine_stats
            evictions = (
                stats.evicted_mmap_entries
                + stats.evicted_cmap_entries
                + stats.evicted_open_cags
            )
            result.rows.append(
                {
                    "clients": clients,
                    "window_s": window,
                    "batch_peak_entries": batch.correlation.peak_buffered_activities
                    + batch.correlation.peak_state_entries,
                    "stream_peak_entries": stream.correlation.peak_buffered_activities
                    + stream.correlation.peak_state_entries,
                    "stream_evictions": evictions,
                    # count equality only -- full CAG identity is asserted
                    # structurally by tests/test_stream.py
                    "same_request_count": stream.request_count == batch.request_count,
                }
            )
    return result


def figure12_streaming(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Fig. 12 companion: correlation throughput of the three drivers.

    Where Fig. 12 measures the *instrumentation* overhead on the traced
    service, this table measures the *analysis* side: how many logged
    activities per second the batch, streaming and sharded correlators
    sustain, i.e. how much live traffic an online deployment could keep
    up with."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fig12s",
        title="Correlation throughput: batch vs. streaming vs. sharded",
        columns=[
            "clients",
            "activities",
            "batch_kact_s",
            "stream_kact_s",
            "sharded_kact_s",
            "shards",
        ],
    )

    def _rate(activities: int, seconds: float) -> float:
        return round(activities / max(seconds, 1e-9) / 1e3, 1)

    for clients in scale.client_series:
        run = get_run(_base_config(scale, clients=clients), cache)
        batch = run.trace(window=scale.window)
        stream = stream_trace(run, window=scale.window, horizon=STREAMING_HORIZON)
        sharder = BackendSpec.sharded(window=scale.window).make_correlator()
        sharded = sharder.correlate(run.activities())
        total = run.total_activities
        result.rows.append(
            {
                "clients": clients,
                "activities": total,
                "batch_kact_s": _rate(total, batch.correlation_time),
                "stream_kact_s": _rate(total, stream.correlation_time),
                "sharded_kact_s": _rate(total, sharded.correlation_time),
                "shards": len(sharder.last_shard_sizes),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Extra: accuracy across the scenario library
# ---------------------------------------------------------------------------

def scenario_accuracy(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Path accuracy across the whole scenario library.

    Not a figure of the paper -- the paper validates on one deployment
    (Fig. 7) -- but its natural generalisation: the same 100 %-accuracy
    claim re-checked on every topology of the library (deep chains,
    fan-out/join, cache-aside, replication behind a load balancer) under
    each scenario's own workload shape (closed, open-loop Poisson,
    bursty)."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="scenarios",
        title="Path accuracy across the scenario library (window = 10 ms)",
        columns=[
            "scenario",
            "workload",
            "tiers",
            "requests",
            "activities",
            "patterns",
            "accuracy",
            "false_positives",
            "false_negatives",
        ],
    )
    for name in scenario_names():
        scenario = get_scenario(name)
        config = ScenarioConfig(
            scenario=name,
            seed=scale.seed,
            stages=scale.stages,
            clock_skew=scale.clock_skew,
        )
        run = get_run(config, cache)
        trace = run.trace(window=scale.window)
        report = trace.accuracy(run.ground_truth)
        result.rows.append(
            {
                "scenario": name,
                "workload": run.workload.kind,
                "tiers": sum(tier.replicas for tier in scenario.topology.tiers),
                "requests": report.total_requests,
                "activities": run.total_activities,
                "patterns": len(trace.patterns()),
                "accuracy": report.accuracy,
                "false_positives": report.false_positives,
                "false_negatives": report.false_negatives,
            }
        )
    return result


# ---------------------------------------------------------------------------
# Extra: overhead control -- accuracy and cost vs. sampling rate
# ---------------------------------------------------------------------------

def figure_sampling(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
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
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="sampling",
        title="Request sampling: accuracy and correlation cost vs. rate",
        columns=[
            "scenario",
            "rate",
            "requests_full",
            "requests_sampled",
            "sample_fraction",
            "pattern_coverage",
            "profile_drift_pp",
            "correlation_time_s",
            "time_vs_full",
            "state_vs_full",
        ],
        notes=(
            "uniform root-hash sampling, batch backend; time_vs_full and "
            "state_vs_full are ratios against the same trace unsampled"
        ),
    )
    for name in scale.sampling_scenarios:
        config = ScenarioConfig(
            scenario=name,
            seed=scale.seed,
            stages=scale.stages,
            clock_skew=scale.clock_skew,
        )
        run = get_run(config, cache)
        source = RunSource(run=run)
        full = BackendSpec.batch(window=scale.window).correlate(source.activities())
        full_time = max(full.correlation_time, 1e-9)
        full_state = max(full.peak_state_entries, 1)
        for rate in scale.sampling_rates:
            spec = BackendSpec.batch(
                window=scale.window, sampling=SamplingSpec.uniform(rate)
            )
            sampled = spec.correlate(source.activities())
            fidelity = compare_sampled_reports(full.cags, sampled.cags)
            drift = fidelity.dominant_profile_distance
            result.rows.append(
                {
                    "scenario": name,
                    "rate": rate,
                    "requests_full": len(full.cags),
                    "requests_sampled": len(sampled.cags),
                    "sample_fraction": round(fidelity.sample_fraction, 4),
                    "pattern_coverage": round(fidelity.pattern_coverage, 4),
                    "profile_drift_pp": None if drift is None else round(drift, 3),
                    "correlation_time_s": round(sampled.correlation_time, 4),
                    "time_vs_full": round(sampled.correlation_time / full_time, 3),
                    "state_vs_full": round(
                        sampled.peak_state_entries / full_state, 3
                    ),
                }
            )
    return result


def figure_fuzz(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
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

    scale = scale or default_scale()
    result = FigureResult(
        figure_id="fuzz",
        title="Differential fuzzing: invariant coverage per generated seed",
        columns=[
            "seed",
            "tiers",
            "patterns",
            "workload",
            "replicated",
            "request_types",
            "activities",
            "requests",
            "spliced_receives",
            "violations",
            "seconds",
        ],
    )
    report = run_fuzz(
        seeds=scale.fuzz_seeds,
        window=scale.window,
        sampling_rate=scale.fuzz_sampling_rate,
    )
    for case in report.cases:
        result.rows.append(
            {
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
        )
    coverage = report.coverage()
    result.notes = (
        f"{report.seeds_run} seeds, {len(report.failures)} failing, "
        f"{report.seconds_per_seed():.2f} s/seed; covered "
        f"patterns={'/'.join(coverage['patterns'])} "
        f"workloads={'/'.join(coverage['workloads'])} "
        f"tiers={coverage['tiers_min']}..{coverage['tiers_max']}"
    )
    return result


# ---------------------------------------------------------------------------
# Extra: probabilistic-baseline comparison
# ---------------------------------------------------------------------------

def baseline_comparison(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """PreciseTracer vs. WAP5-style and Project5-style baselines.

    Not a figure of the paper, but a quantitative version of its Section 6
    argument: probabilistic correlation loses precision as concurrency
    rises, while PreciseTracer stays at 100 %."""
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="baselines",
        title="Path accuracy: PreciseTracer vs. probabilistic baselines",
        columns=["clients", "precisetracer", "wap5_style", "project5_style"],
    )
    wap5 = Wap5Tracer()
    for clients in scale.baseline_clients:
        run = get_run(_base_config(scale, clients=clients), cache)
        activities = run.activities()
        precise = run.trace(window=scale.window).accuracy(run.ground_truth).accuracy
        wap5_accuracy = wap5.path_accuracy(activities, run.ground_truth)
        nesting = nesting_algorithm(activities)
        project5_accuracy = nesting.path_accuracy(run.ground_truth)
        result.rows.append(
            {
                "clients": clients,
                "precisetracer": round(precise, 4),
                "wap5_style": round(wap5_accuracy, 4),
                "project5_style": round(project5_accuracy, 4),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Columnar core -- object list vs ActivityTable memory
# ---------------------------------------------------------------------------

def _count_live_activities() -> int:
    """Number of :class:`Activity` instances currently alive (gc scan)."""
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Activity))


def figure_interning(
    scale: Optional[ExperimentScale] = None, cache: Optional[RunCache] = None
) -> FigureResult:
    """Memory of the two activity representations, per client count.

    For each trace the classified activities are held first as a plain
    Python list of :class:`Activity` objects, then packed into a columnar
    :class:`~repro.core.interning.ActivityTable` (the object list is
    released).  ``tracemalloc`` reports the bytes each representation
    retains; the gc scan reports how many ``Activity`` instances stay
    alive -- the table keeps none until a row is materialised at the
    CAG/export boundary, which is the point of the columnar core.
    """
    scale = scale or default_scale()
    result = FigureResult(
        figure_id="interning",
        title="Activity storage: object list vs columnar ActivityTable",
        columns=[
            "clients",
            "activities",
            "object_kb",
            "object_bytes_per_activity",
            "object_live_activities",
            "columnar_kb",
            "columnar_bytes_per_activity",
            "columnar_live_activities",
            "retained_ratio",
        ],
        notes=(
            "tracemalloc retained bytes of each representation built from "
            "the same trace; live counts are Activity instances alive after "
            "the build (gc scan)."
        ),
    )
    for clients in scale.window_clients:
        run = get_run(_base_config(scale, clients=clients), cache)
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
        result.rows.append(
            {
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
        )
        del table
    return result


#: Every generator, keyed by figure id (used by the CLI and the docs).
ALL_FIGURES = {
    "sec5.2": accuracy_table,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig11s": figure11_streaming,
    "fig12": figure12,
    "fig12s": figure12_streaming,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
    "fig16": figure16,
    "fig17": figure17,
    "baselines": baseline_comparison,
    "scenarios": scenario_accuracy,
    "sampling": figure_sampling,
    "fuzz": figure_fuzz,
    "interning": figure_interning,
}
