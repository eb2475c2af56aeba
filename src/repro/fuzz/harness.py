"""The cross-backend fuzz harness: generated scenarios vs the invariants.

One fuzz *case* takes an integer seed, generates a scenario
(:func:`~repro.topology.generator.generate_scenario`), runs it on the
simulated cluster, and drives the resulting trace through the full
invariant stack:

``full_equivalence``
    batch == streaming == sharded result digests
    (:func:`~repro.pipeline.verify_equivalence`);
``sampled_equivalence``
    the same three backends under request sampling still agree -- the
    root-hash decision makes the admitted subset backend-independent;
``sampled_subset``
    every CAG of the sampled run is byte-for-byte one of the full run's
    (sampling selects, never distorts);
``accuracy``
    :class:`~repro.pipeline.AccuracyStage` scores 100 % causal-path
    accuracy with zero false positives against the simulator's ground
    truth;
``engine_state``
    conservation laws of the engine counters after the drain: an
    unsampled run has no tombstone activity at all; a sampled run
    accounts every sampled-out root (finished + still-open + evicted),
    purges at least one context-map entry per discarded request (its
    END's own entry -- the PR 5 leak), and ends with no more live engine
    state than the unsampled run.

Each invariant that fails contributes a :class:`Violation`; a failing
seed is then *shrunk* by re-generating it under progressively smaller
:class:`~repro.topology.generator.GeneratorLimits` envelopes (fewer
tiers, fewer clients, smaller catalogue, shorter runtime), keeping each
reduction that still fails -- the reported repro is the smallest
still-failing ``(seed, limits)`` pair, a handful of requests instead of
a 60-tier mesh.

Noise and fault attachment points are generated into the topologies
(ssh-noise tiers, ``db_noise_tier``, ``network_fault_tier``) but the
harness runs with noise and faults *disabled*: the oracle demands exact
accuracy, and the paper's non-filterable noise legitimately perturbs it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..pipeline import (
    AccuracyStage,
    BackendSpec,
    Pipeline,
    RunSource,
    canonical_cags,
    verify_equivalence,
)
from ..sampling import SamplingSpec
from ..topology import (
    DEFAULT_LIMITS,
    GeneratorLimits,
    RunSettings,
    Scenario,
    TopologyDeployment,
    generate_scenario,
    scenario_shape,
)

#: Clock skews cycled across seeds (seconds); all within the streaming
#: backend's default reorder slack, so equivalence is exact by design.
_CLOCK_SKEWS = (0.0005, 0.0, 0.002)

#: Offset decorrelating the run-knob stream from the scenario stream.
_RUN_SALT = 0x9E3779B9


@dataclass
class Violation:
    """One invariant the case broke."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class CaseResult:
    """Outcome of one seed under one generator envelope."""

    seed: int
    limits: GeneratorLimits
    shape: Dict[str, object]
    violations: List[Violation]
    activities: int
    requests: int
    spliced_receives: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class FailureReport:
    """A failing seed plus its minimized repro."""

    seed: int
    violations: List[Violation]
    shrunk_limits: GeneratorLimits
    shrunk_violations: List[Violation]
    shrunk_shape: Dict[str, object]
    shrink_steps: int

    def describe(self) -> str:
        lines = [f"seed {self.seed} FAILED:"]
        lines += [f"  {v}" for v in self.violations]
        lines.append(
            f"  minimized repro ({self.shrink_steps} shrink steps): "
            f"seed={self.seed} limits={self.shrunk_limits} "
            f"shape={self.shrunk_shape}"
        )
        lines += [f"    {v}" for v in self.shrunk_violations]
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` sweep produced."""

    cases: List[CaseResult] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False
    seeds_requested: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def seeds_run(self) -> int:
        return len(self.cases)

    def seconds_per_seed(self) -> float:
        return self.elapsed / len(self.cases) if self.cases else 0.0

    def coverage(self) -> Dict[str, object]:
        """Shapes the sweep exercised (the fuzz figure's payload)."""
        patterns: set = set()
        workloads: set = set()
        tiers: List[int] = []
        for case in self.cases:
            patterns.update(case.shape["patterns"])
            workloads.add(case.shape["workload"])
            tiers.append(int(case.shape["tiers"]))
        return {
            "patterns": sorted(patterns),
            "workloads": sorted(workloads),
            "tiers_min": min(tiers) if tiers else 0,
            "tiers_max": max(tiers) if tiers else 0,
            "replicated_meshes": sum(1 for c in self.cases if c.shape["replicated"]),
            "splice_exercised": sum(1 for c in self.cases if c.spliced_receives > 0),
            "total_activities": sum(c.activities for c in self.cases),
        }

    def describe(self) -> str:
        cov = self.coverage()
        lines = [
            f"fuzz: {self.seeds_run}/{self.seeds_requested} seeds run, "
            f"{len(self.failures)} failing, {self.seconds_per_seed():.2f} s/seed"
            + (" (budget exhausted)" if self.budget_exhausted else ""),
            f"  coverage: patterns={'/'.join(cov['patterns'])} "
            f"workloads={'/'.join(cov['workloads'])} "
            f"tiers={cov['tiers_min']}..{cov['tiers_max']} "
            f"replicated={cov['replicated_meshes']} "
            f"splice_exercised={cov['splice_exercised']}",
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# one case
# ---------------------------------------------------------------------------


def run_generated_scenario(seed: int, scenario: Scenario):
    """Simulate one generated scenario (deterministic run knobs)."""
    knobs = random.Random(seed + _RUN_SALT)
    settings = RunSettings(
        seed=seed,
        clock_skew=knobs.choice(_CLOCK_SKEWS),
    )
    deployment = TopologyDeployment(
        topology=scenario.topology,
        workload=scenario.workload,
        mix=scenario.mix,
        settings=settings,
    )
    return deployment.run()


def run_case(
    seed: int,
    limits: GeneratorLimits = DEFAULT_LIMITS,
    window: float = 0.010,
    sampling_rate: float = 0.5,
) -> CaseResult:
    """Generate, simulate and check one seed; never raises on violation."""
    start = time.perf_counter()
    scenario = generate_scenario(seed, limits)
    run = run_generated_scenario(seed, scenario)
    source = RunSource(run=run)
    sampling = SamplingSpec.uniform(sampling_rate)
    violations: List[Violation] = []

    full = verify_equivalence(source, window=window, keep_results=True)
    if not full.equivalent:
        violations.append(Violation("full_equivalence", full.describe()))
    sampled = verify_equivalence(
        source, window=window, sampling=sampling, keep_results=True
    )
    if not sampled.equivalent:
        violations.append(Violation("sampled_equivalence", sampled.describe()))

    full_batch = full.outcomes[0].result
    sampled_batch = sampled.outcomes[0].result
    full_canon = set(canonical_cags(full_batch.cags))
    missing = [
        shape for shape in canonical_cags(sampled_batch.cags) if shape not in full_canon
    ]
    if missing:
        violations.append(
            Violation(
                "sampled_subset",
                f"{len(missing)} sampled CAG(s) are not byte-identical to any "
                "CAG of the unsampled run",
            )
        )

    session = Pipeline(
        source=source,
        backend=BackendSpec.batch(window=window),
        stages=[AccuracyStage()],
    ).run()
    accuracy = session.analyses["accuracy"]
    if accuracy.accuracy != 1.0 or accuracy.false_positives != 0:
        violations.append(
            Violation(
                "accuracy",
                f"accuracy={accuracy.accuracy} "
                f"false_positives={accuracy.false_positives} vs ground truth",
            )
        )

    violations.extend(_engine_state_violations(full, sampled))

    shape = scenario_shape(scenario)
    return CaseResult(
        seed=seed,
        limits=limits,
        shape=shape,
        violations=violations,
        activities=run.total_activities,
        requests=len(run.ground_truth),
        spliced_receives=sum(
            o.result.engine_stats.spliced_receives for o in full.outcomes
        ),
        elapsed=time.perf_counter() - start,
    )


def _engine_state_violations(full, sampled) -> List[Violation]:
    """Conservation laws over the engine counters of every backend."""
    violations: List[Violation] = []
    for outcome in full.outcomes:
        stats = outcome.result.engine_stats
        if (
            stats.sampled_out_roots
            or stats.sampled_out_finished
            or stats.purged_cmap_entries
            or outcome.result.final_open_tombstones
        ):
            violations.append(
                Violation(
                    "engine_state",
                    f"{outcome.kind}: unsampled run produced tombstone "
                    f"activity (roots={stats.sampled_out_roots}, "
                    f"purged={stats.purged_cmap_entries})",
                )
            )
    for outcome, full_outcome in zip(sampled.outcomes, full.outcomes):
        stats = outcome.result.engine_stats
        accounted = (
            stats.sampled_out_finished
            + outcome.result.final_open_tombstones
            + stats.evicted_sampled_out_cags
        )
        if stats.sampled_out_roots != accounted:
            violations.append(
                Violation(
                    "engine_state",
                    f"{outcome.kind}: leaked tombstones -- "
                    f"{stats.sampled_out_roots} sampled-out roots but only "
                    f"{accounted} accounted (finished + open + evicted)",
                )
            )
        if stats.purged_cmap_entries < stats.sampled_out_finished:
            violations.append(
                Violation(
                    "engine_state",
                    f"{outcome.kind}: sampled-out purge leak -- "
                    f"{stats.sampled_out_finished} discarded requests purged "
                    f"only {stats.purged_cmap_entries} context-map entries "
                    "(each END must purge at least its own)",
                )
            )
        if (
            outcome.result.final_state_entries
            > full_outcome.result.final_state_entries
        ):
            violations.append(
                Violation(
                    "engine_state",
                    f"{outcome.kind}: sampled run retained more live engine "
                    f"state ({outcome.result.final_state_entries} entries) "
                    f"than the unsampled run "
                    f"({full_outcome.result.final_state_entries})",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

#: Reductions tried in order; each is kept only if the seed still fails.
_SHRINK_LADDER = (
    {"min_tiers": 3, "max_tiers": 5},
    {"max_clients": 6, "max_arrival_rate": 8.0},
    {"max_request_types": 1, "max_queries": 2},
    {"runtime": 0.5, "ramp": 0.1},
    {"max_replicas": 1},
)


def shrink(
    seed: int,
    limits: GeneratorLimits,
    window: float = 0.010,
    sampling_rate: float = 0.5,
) -> FailureReport:
    """Minimize a failing seed by tightening the generator envelope.

    Greedy over :data:`_SHRINK_LADDER`: each reduction is applied on top
    of the reductions kept so far and re-run; it sticks only when the
    seed still fails.  Bounded at ``len(_SHRINK_LADDER)`` extra runs,
    each cheaper than the original.
    """
    original = run_case(seed, limits, window=window, sampling_rate=sampling_rate)
    best = original
    current = limits
    steps = 0
    for reduction in _SHRINK_LADDER:
        candidate_limits = current.with_overrides(**reduction)
        candidate = run_case(
            seed, candidate_limits, window=window, sampling_rate=sampling_rate
        )
        steps += 1
        if not candidate.ok:
            current = candidate_limits
            best = candidate
    return FailureReport(
        seed=seed,
        violations=original.violations,
        shrunk_limits=best.limits,
        shrunk_violations=best.violations,
        shrunk_shape=best.shape,
        shrink_steps=steps,
    )


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def run_fuzz(
    seeds: int = 25,
    start_seed: int = 0,
    limits: GeneratorLimits = DEFAULT_LIMITS,
    window: float = 0.010,
    sampling_rate: float = 0.5,
    budget: Optional[float] = None,
    shrink_failures: bool = True,
    on_case: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Fuzz ``seeds`` consecutive seeds starting at ``start_seed``.

    ``budget`` caps wall-clock seconds: the sweep stops cleanly before
    starting a case that would exceed it (``report.budget_exhausted``).
    ``on_case`` fires after every case -- the CLI's progress line.
    Every knob is refused before the first case: a sweep of nothing is
    not a green run.
    """
    if seeds <= 0:
        raise ValueError(f"seeds must be positive, got {seeds}")
    if budget is not None and budget <= 0:
        raise ValueError(f"budget must be positive, got {budget:g}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window:g}")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate:g}")
    report = FuzzReport(seeds_requested=seeds)
    start = time.perf_counter()
    for seed in range(start_seed, start_seed + seeds):
        if budget is not None and time.perf_counter() - start >= budget:
            report.budget_exhausted = True
            break
        case = run_case(seed, limits, window=window, sampling_rate=sampling_rate)
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
        if not case.ok:
            if shrink_failures:
                report.failures.append(
                    shrink(seed, limits, window=window, sampling_rate=sampling_rate)
                )
            else:
                report.failures.append(
                    FailureReport(
                        seed=seed,
                        violations=case.violations,
                        shrunk_limits=limits,
                        shrunk_violations=case.violations,
                        shrunk_shape=case.shape,
                        shrink_steps=0,
                    )
                )
    report.elapsed = time.perf_counter() - start
    return report


def report_payload(report: FuzzReport) -> Dict[str, object]:
    """JSON-ready summary (the CLI's ``--output`` artifact)."""
    return {
        "ok": report.ok,
        "seeds_requested": report.seeds_requested,
        "seeds_run": report.seeds_run,
        "elapsed_s": round(report.elapsed, 3),
        "seconds_per_seed": round(report.seconds_per_seed(), 3),
        "budget_exhausted": report.budget_exhausted,
        "coverage": report.coverage(),
        "failures": [
            {
                "seed": failure.seed,
                "violations": [str(v) for v in failure.violations],
                "shrunk_limits": {
                    f: getattr(failure.shrunk_limits, f)
                    for f in (
                        "min_tiers",
                        "max_tiers",
                        "max_replicas",
                        "max_clients",
                        "max_arrival_rate",
                        "max_request_types",
                        "max_queries",
                        "runtime",
                        "ramp",
                    )
                },
                "shrunk_shape": failure.shrunk_shape,
                "shrunk_violations": [str(v) for v in failure.shrunk_violations],
            }
            for failure in report.failures
        ],
    }
