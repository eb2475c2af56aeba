"""Seeded random scenario generator: valid topologies from a coin flip.

Each of PRs 3-5 found a real correlation bug that only a *new* topology
shape exposed (the fan-out RECEIVE splice, the delivery-order-dependent
pattern signature, the sampled-out context-map leak).  Hand-writing one
library scenario per shape does not scale to the space of shapes, so
this module turns scenarios into data drawn from a seeded RNG: given an
integer seed, :func:`generate_scenario` emits one fully validated
:class:`~repro.topology.library.Scenario` -- a microservice mesh of
``min_tiers``..``max_tiers`` tiers mixing sequential, chain, fan-out and
cache-aside call patterns (with optional replica groups behind the
round-robin LB), a generated operation catalogue, and a closed / open /
bursty workload shaped as steady load, a diurnal ramp, a flash crowd or
a retry storm.

Design rules:

* **Validity by construction.**  Tiers are emitted back to front
  (backends, then workers, then the frontend), downstream references
  only name earlier tiers, and role contracts (frontend -> worker,
  chain -> worker, other worker patterns -> backends, cache-aside ->
  exactly two backends) are honoured while drawing -- then the finished
  :class:`~repro.topology.spec.TopologySpec` runs its own eager
  validation anyway, so a generator bug fails loudly, not deep in a run.
* **Determinism.**  One ``random.Random(seed)`` stream, drawn in a fixed
  order, no ambient state: the same seed produces a byte-identical
  scenario (``dump_scenario`` output compares equal), which is what lets
  the fuzz harness report *seeds* as repros.
* **Bounded cost.**  Sizes are drawn with a strong bias toward small
  meshes (the exponent in ``_draw_size``) so a fuzz run spends its
  budget on many cheap shapes and only occasionally on a deep one; the
  :class:`GeneratorLimits` envelope is the shrink ladder's knob.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from .library import Scenario
from .operations import QuerySpec, RequestType
from .spec import TierSpec, TopologyError, TopologySpec, WorkloadSpec
from .workload import WorkloadStages

#: Load shapes layered on the three workload kinds: ``steady`` keeps the
#: drawn parameters, ``diurnal`` stretches the up/down ramps, a
#: ``flash_crowd`` is a short, violent bursty on-phase and a
#: ``retry_storm`` drives arrivals well past the mesh's service rate
#: (closed-loop: near-zero think time), the shapes ROADMAP item 4 names.
WORKLOAD_SHAPES: Tuple[str, ...] = ("steady", "diurnal", "flash_crowd", "retry_storm")


@dataclass(frozen=True)
class GeneratorLimits:
    """Size envelope of generated scenarios.

    The fuzz harness shrinks a failing seed by re-generating it under
    progressively smaller envelopes, so every field here doubles as a
    shrink dimension.  ``min_tiers`` may go as low as 3 (backend,
    worker, frontend -- the smallest mesh the role contracts allow).
    """

    min_tiers: int = 5
    max_tiers: int = 60
    max_replicas: int = 3
    max_clients: int = 24
    max_arrival_rate: float = 30.0
    max_request_types: int = 3
    max_queries: int = 4
    runtime: float = 1.5
    ramp: float = 0.25

    def validate(self) -> None:
        if self.min_tiers < 3:
            raise TopologyError("min_tiers must be >= 3 (backend, worker, frontend)")
        if self.max_tiers < self.min_tiers:
            raise TopologyError("max_tiers must be >= min_tiers")
        if self.max_replicas < 1:
            raise TopologyError("max_replicas must be >= 1")
        if self.max_clients < 1 or self.max_arrival_rate <= 0:
            raise TopologyError("workload limits must be positive")
        if self.max_request_types < 1 or self.max_queries < 1:
            raise TopologyError("catalogue limits must be positive")
        if self.runtime <= 0 or self.ramp < 0:
            raise TopologyError("runtime must be positive and ramp non-negative")

    def with_overrides(self, **kwargs) -> "GeneratorLimits":
        return replace(self, **kwargs)


#: The default envelope (the CLI's and the nightly fuzz job's).
DEFAULT_LIMITS = GeneratorLimits()


def scenario_name(seed: int) -> str:
    """The canonical name of the scenario generated from ``seed``."""
    return f"gen_{seed:08d}"


def entity_exclusive_step(spacing: float, queries: int, contexts: int = 3) -> float:
    """Largest intra-request step that keeps execution entities exclusive.

    The paper's model (and any tracer's information-theoretic limit): one
    execution entity serves one request at a time -- two requests
    interleaved in a single thread are indistinguishable from their logs.
    Synthetic traces that rotate requests across ``contexts`` worker sets
    must therefore finish a request (``6 + 4 * queries`` causal steps of
    a three-tier request) before the same worker's next request begins,
    ``contexts * spacing`` seconds later.  This is the validity rule the
    generator and the property-based tests share
    (``tests/test_properties.py`` used to hand-roll it).
    """
    duration_steps = 6 + 4 * queries
    return min(0.001, contexts * spacing / duration_steps * 0.9)


# ---------------------------------------------------------------------------
# drawing helpers
# ---------------------------------------------------------------------------


def _alpha(index: int) -> str:
    """Letter suffix for tier names: a..z, aa, ab, ...

    All-letter names keep expanded replica hostnames collision-free by
    construction: replicas append a *digit* to the tier name, so a
    replica of ``svcb`` (``svcb1``) can never equal another tier's name
    (numeric tier suffixes made ``svc1`` x3 collide with a tier
    ``svc11`` -- the validation gap fuzz seed 24 found).
    """
    letters = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("a") + rem) + letters
    return letters


def _draw_size(rng: random.Random, low: int, high: int, bias: float = 2.5) -> int:
    """An integer in [low, high], strongly biased toward ``low``."""
    if high <= low:
        return low
    return low + int((high - low + 1) * (rng.random() ** bias) * 0.999999)


def _tier_address(index: int) -> Tuple[str, int]:
    """A unique (ip, port) per tier index, with headroom on the last
    octet for replica addressing (``replica_ip`` adds the replica index
    to the last octet)."""
    return f"10.{40 + index // 200}.{index % 200}.1", 7000 + index


def _request_type(rng: random.Random, index: int, limits: GeneratorLimits) -> RequestType:
    queries = tuple(
        QuerySpec(
            name=f"q{index}_{j}",
            engine_delay=round(rng.uniform(0.004, 0.024), 6),
            reply_bytes=rng.randrange(400, 12_000, 100),
            touches_items=rng.random() < 0.3,
        )
        for j in range(rng.randint(1, limits.max_queries))
    )
    return RequestType(
        name=f"Gen{index}",
        app_cpu=round(rng.uniform(0.001, 0.006), 6),
        queries=queries,
        reply_bytes=rng.randrange(2_000, 24_000, 500),
        app_reply_bytes=rng.randrange(1_500, 18_000, 500),
        writes=rng.random() < 0.2,
    )


def _workload(rng: random.Random, limits: GeneratorLimits) -> Tuple[WorkloadSpec, str]:
    kind = rng.choice(("closed", "open", "bursty"))
    shape = rng.choice(WORKLOAD_SHAPES)
    ramp = limits.ramp * (3.0 if shape == "diurnal" else 1.0)
    stages = WorkloadStages(up_ramp=ramp, runtime=limits.runtime, down_ramp=limits.ramp)
    if kind == "closed":
        think = 0.05 if shape == "retry_storm" else round(rng.uniform(0.4, 2.5), 3)
        spec = WorkloadSpec(
            kind="closed",
            clients=_draw_size(rng, 4, limits.max_clients, bias=1.5),
            think_time=think,
            stages=stages,
        )
    elif kind == "open":
        rate = round(rng.uniform(4.0, limits.max_arrival_rate), 3)
        if shape == "retry_storm":
            rate = round(min(rate * 2.5, limits.max_arrival_rate * 2.5), 3)
        spec = WorkloadSpec(kind="open", arrival_rate=rate, stages=stages)
    else:
        rate = round(rng.uniform(6.0, limits.max_arrival_rate), 3)
        on_time = round(rng.uniform(0.2, 0.8), 3)
        off_time = round(rng.uniform(0.1, 0.8), 3)
        if shape == "flash_crowd":
            rate = round(min(rate * 2.0, limits.max_arrival_rate * 2.0), 3)
            on_time, off_time = 0.2, round(rng.uniform(0.4, 1.0), 3)
        spec = WorkloadSpec(
            kind="bursty",
            arrival_rate=rate,
            on_time=on_time,
            off_time=off_time,
            stages=stages,
        )
    return spec, shape


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


def generate_scenario(seed: int, limits: GeneratorLimits = DEFAULT_LIMITS) -> Scenario:
    """Generate one validated scenario from an integer seed.

    The returned :class:`~repro.topology.library.Scenario` is a pure
    function of ``(seed, limits)``; run it with
    :class:`~repro.topology.deployment.TopologyDeployment` (the fuzz
    harness's path) or register it with
    :func:`~repro.topology.scenario_io.register_scenario` to use the
    named ``run_scenario`` entry point.
    """
    limits.validate()
    rng = random.Random(seed)

    total = _draw_size(rng, limits.min_tiers, limits.max_tiers)
    n_backends = _draw_size(rng, 1, max(1, (total - 2) // 2), bias=1.8)
    n_workers = total - 1 - n_backends

    tiers: List[TierSpec] = []
    backend_names: List[str] = []
    index = 0
    for i in range(n_backends):
        ip, port = _tier_address(index)
        index += 1
        name = f"be{_alpha(i)}"
        backend_names.append(name)
        tiers.append(
            TierSpec(
                name=name,
                ip=ip,
                port=port,
                program=f"{name}d",
                role="backend",
                workers=_draw_size(rng, 4, 32, bias=1.2),
                service_scale=rng.choice((1.0, 1.0, 1.0, 0.5, 0.05)),
            )
        )

    worker_names: List[str] = []
    fault_worker = rng.randrange(n_workers)
    for i in range(n_workers):
        ip, port = _tier_address(index)
        index += 1
        name = f"svc{_alpha(i)}"
        roll = rng.random()
        if worker_names and roll < 0.45:
            pattern = "chain"
            downstream: Tuple[str, ...] = (rng.choice(worker_names),)
        elif len(backend_names) >= 2 and roll < 0.60:
            pattern = "cache_aside"
            downstream = tuple(rng.sample(backend_names, 2))
        elif len(backend_names) >= 2 and roll < 0.80:
            pattern = "fanout"
            downstream = tuple(
                rng.sample(backend_names, rng.randint(2, min(4, len(backend_names))))
            )
        else:
            pattern = "sequential"
            downstream = tuple(
                rng.sample(backend_names, rng.randint(1, min(3, len(backend_names))))
            )
        tiers.append(
            TierSpec(
                name=name,
                ip=ip,
                port=port,
                program=f"{name}d",
                role="worker",
                workers=_draw_size(rng, 8, 48, bias=1.2),
                replicas=(
                    rng.randint(2, limits.max_replicas)
                    if limits.max_replicas > 1 and rng.random() < 0.2
                    else 1
                ),
                downstream=downstream,
                pattern=pattern,
                cache_hit_ratio=(
                    round(rng.uniform(0.5, 0.95), 3) if pattern == "cache_aside" else 0.9
                ),
                cpu_scale=rng.choice((1.0, 1.0, 0.6, 0.8, 1.2)),
                delay_fault_target=i == fault_worker,
            )
        )
        worker_names.append(name)

    front_ip, _ = _tier_address(index)
    tiers.append(
        TierSpec(
            name="front",
            ip=front_ip,
            port=80,
            program="frontd",
            role="frontend",
            workers=_draw_size(rng, 32, 160, bias=1.2),
            downstream=(worker_names[-1],),
        )
    )

    noise_backend = rng.choice(backend_names)
    topology = TopologySpec(
        name=scenario_name(seed),
        tiers=tuple(tiers),
        frontend="front",
        client_ips=tuple(f"10.9.0.{k + 1}" for k in range(rng.randint(1, 3))),
        workstation_ip="10.9.1.1",
        ssh_noise=(
            (("front", "sshd"), (noise_backend, "rlogind"))
            if rng.random() < 0.5
            else ()
        ),
        db_noise_tier=noise_backend if rng.random() < 0.4 else None,
        network_fault_tier=rng.choice(worker_names) if rng.random() < 0.4 else None,
    )

    mix = tuple(
        (_request_type(rng, i + 1, limits), round(rng.uniform(0.1, 1.0), 3))
        for i in range(rng.randint(1, limits.max_request_types))
    )
    workload, shape = _workload(rng, limits)

    patterns = sorted({tier.pattern for tier in tiers if tier.role == "worker"})
    return Scenario(
        name=scenario_name(seed),
        description=(
            f"generated mesh (seed {seed}): {len(tiers)} tiers, "
            f"patterns {'/'.join(patterns)}, {workload.kind} workload ({shape})"
        ),
        topology=topology,
        workload=workload,
        mix=mix,
    )


def scenario_shape(scenario: Scenario) -> Dict[str, object]:
    """Coverage fingerprint of one scenario (the fuzz figure's rows)."""
    workers = [tier for tier in scenario.topology.tiers if tier.role == "worker"]
    return {
        "tiers": len(scenario.topology.tiers),
        "patterns": sorted({tier.pattern for tier in workers}),
        "workload": scenario.workload.kind,
        "replicated": any(tier.replicas > 1 for tier in scenario.topology.tiers),
        "request_types": len(scenario.mix),
    }
