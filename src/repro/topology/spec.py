"""Declarative specifications of a deployment topology and its workload.

A :class:`TopologySpec` is the network-level *and* behaviour-level
description of one emulated multi-tier service: which tiers exist, on
which addresses they listen, how their worker pools are organised
(prefork processes, a bounded thread pool, per-connection threads with
engine slots) and how each tier calls its downstream tiers (sequential
round trips, chain forwarding, fan-out/join, cache-aside with a hit
ratio, optionally replicated behind a round-robin load balancer).

A :class:`WorkloadSpec` describes how emulated clients drive the frontend
tier: closed-loop think-time sessions (the RUBiS client emulator of the
paper), open-loop Poisson arrivals or bursty on/off phases.

Both specs validate eagerly at construction: a typo'd tier reference or
workload kind raises :class:`TopologyError` (a ``ValueError``) listing the
valid names, instead of a ``KeyError`` deep inside a simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from .workload import WorkloadStages

#: Valid tier roles, in the vocabulary of the generic engine:
#: ``frontend`` -- prefork worker processes proxying to one downstream
#: tier (the httpd pattern); ``worker`` -- one process with a bounded
#: thread pool issuing downstream calls (the JBoss pattern); ``backend``
#: -- per-connection threads contending for engine slots (the mysqld
#: pattern).
TIER_ROLES: Tuple[str, ...] = ("frontend", "worker", "backend")

#: Valid downstream call patterns of a worker tier.
CALL_PATTERNS: Tuple[str, ...] = ("sequential", "chain", "fanout", "cache_aside")

#: Valid workload kinds.
WORKLOAD_KINDS: Tuple[str, ...] = ("closed", "open", "bursty")


class TopologyError(ValueError):
    """Raised when a topology or workload spec is inconsistent."""


def replica_hostname(base: str, index: int, replicas: int) -> str:
    """Hostname of one replica (the plain name when unreplicated)."""
    return base if replicas == 1 else f"{base}{index + 1}"


def replica_ip(base_ip: str, index: int) -> str:
    """IP of one replica: the base address plus ``index`` on the last octet."""
    if index == 0:
        return base_ip
    prefix, _, last = base_ip.rpartition(".")
    return f"{prefix}.{int(last) + index}"


@dataclass(frozen=True)
class TierSpec:
    """One tier of the emulated service.

    ``workers`` is the tier's concurrency bound, interpreted per role:
    prefork worker processes for a frontend, pool threads for a worker,
    database engine slots for a backend.  ``replicas > 1`` deploys the
    tier as that many identical nodes behind a round-robin load balancer
    (upstream tiers spread their persistent connections across replicas).

    ``stream_prefix`` namespaces the tier's random service-time streams;
    distinct prefixes keep tiers statistically independent under one
    experiment seed.  ``cpu_scale`` multiplies the catalogue's CPU
    demands (chains of otherwise identical tiers can be heterogeneous);
    ``service_scale`` multiplies a backend's query demands (a cache tier
    is a backend with ``service_scale << 1``).
    """

    name: str
    ip: str
    port: int
    program: str
    role: str
    stream_prefix: str = ""
    workers: int = 40
    replicas: int = 1
    downstream: Tuple[str, ...] = ()
    pattern: str = "sequential"
    cache_hit_ratio: float = 0.9
    cpu_scale: float = 1.0
    service_scale: float = 1.0
    #: the EJB_Delay-style fault (FaultConfig.ejb_delay) injects here
    delay_fault_target: bool = False

    @property
    def streams(self) -> str:
        """The RNG stream prefix (defaults to the program name)."""
        return self.stream_prefix or self.program

    def replica_addresses(self) -> List[Tuple[str, str, int]]:
        """(hostname, ip, port) of every replica of this tier."""
        return [
            (replica_hostname(self.name, i, self.replicas), replica_ip(self.ip, i), self.port)
            for i in range(self.replicas)
        ]

    def validate(self) -> None:
        if self.role not in TIER_ROLES:
            raise TopologyError(
                f"tier {self.name!r}: unknown role {self.role!r}; "
                f"valid roles: {', '.join(TIER_ROLES)}"
            )
        if self.pattern not in CALL_PATTERNS:
            raise TopologyError(
                f"tier {self.name!r}: unknown call pattern {self.pattern!r}; "
                f"valid patterns: {', '.join(CALL_PATTERNS)}"
            )
        if self.workers <= 0:
            raise TopologyError(f"tier {self.name!r}: workers must be positive")
        if self.replicas <= 0:
            raise TopologyError(f"tier {self.name!r}: replicas must be positive")
        if not 0.0 <= self.cache_hit_ratio <= 1.0:
            raise TopologyError(
                f"tier {self.name!r}: cache_hit_ratio must be in [0, 1]"
            )
        if self.cpu_scale < 0 or self.service_scale < 0:
            raise TopologyError(f"tier {self.name!r}: scales must be non-negative")
        if self.role == "frontend" and len(self.downstream) != 1:
            raise TopologyError(
                f"frontend tier {self.name!r} must have exactly one downstream tier"
            )
        if self.role == "worker" and not self.downstream:
            raise TopologyError(f"worker tier {self.name!r} needs a downstream tier")
        if self.role == "backend" and self.downstream:
            raise TopologyError(f"backend tier {self.name!r} cannot have downstreams")
        if self.pattern == "cache_aside" and len(self.downstream) != 2:
            raise TopologyError(
                f"tier {self.name!r}: cache_aside needs exactly two downstream "
                "tiers (cache, store)"
            )
        if self.pattern == "chain" and len(self.downstream) != 1:
            raise TopologyError(
                f"tier {self.name!r}: chain forwards to exactly one downstream tier"
            )


@dataclass(frozen=True)
class TopologySpec:
    """The whole deployment: tiers, entry point, clients and noise wiring.

    ``tiers`` are listed in **construction order**: a tier may only call
    tiers that appear *before* it in the tuple, so topologies are built
    back to front (the RUBiS spec lists database, application server,
    web server -- in that order).  The probe attach order, the clock-skew
    assignment and the reported per-node utilisation all use the reverse
    (front-to-back) order, which is what the original hand-written
    deployment did.
    """

    name: str
    tiers: Tuple[TierSpec, ...]
    frontend: str
    client_ips: Tuple[str, ...] = ("10.0.1.1", "10.0.1.2", "10.0.1.3")
    workstation_ip: str = "10.0.2.1"
    #: (tier name, program name) pairs that receive interactive ssh-style
    #: noise sessions from the workstation (attribute-filterable noise).
    ssh_noise: Tuple[Tuple[str, str], ...] = ()
    #: tier receiving external mysql-client-style noise queries (the
    #: non-filterable noise of Section 5.3.3); ``None`` disables it.
    db_noise_tier: Optional[str] = None
    #: the EJB_Network-style fault degrades this tier's node NIC
    network_fault_tier: Optional[str] = None
    #: program names the tracer's attribute filter drops
    ignore_programs: FrozenSet[str] = frozenset({"sshd", "rlogind"})

    def __post_init__(self) -> None:
        self.validate()

    # -- lookups -------------------------------------------------------------

    def tier(self, name: str) -> TierSpec:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise TopologyError(
            f"unknown tier {name!r}; tiers: {', '.join(self.tier_names())}"
        )

    def tier_names(self) -> List[str]:
        return [tier.name for tier in self.tiers]

    def frontend_tier(self) -> TierSpec:
        return self.tier(self.frontend)

    def front_to_back(self) -> Tuple[TierSpec, ...]:
        """Tiers in front-to-back order (reverse of construction order)."""
        return tuple(reversed(self.tiers))

    def service_hostnames(self) -> List[str]:
        """Every service hostname, front to back, replicas expanded."""
        names: List[str] = []
        for tier in self.front_to_back():
            names.extend(host for host, _ip, _port in tier.replica_addresses())
        return names

    def internal_ips(self) -> FrozenSet[str]:
        """Addresses of the data centre's own nodes (replicas included)."""
        ips = set()
        for tier in self.tiers:
            ips.update(ip for _host, ip, _port in tier.replica_addresses())
        return frozenset(ips)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if not self.tiers:
            raise TopologyError(f"topology {self.name!r} has no tiers")
        names = self.tier_names()
        if len(set(names)) != len(names):
            raise TopologyError(f"topology {self.name!r}: duplicate tier names")
        seen: set = set()
        addresses: set = set()
        hostnames: set = set()
        for tier in self.tiers:
            tier.validate()
            for host, ip, port in tier.replica_addresses():
                if (ip, port) in addresses:
                    raise TopologyError(
                        f"topology {self.name!r}: address {ip}:{port} used twice"
                    )
                addresses.add((ip, port))
                # Replica hostnames append the replica index to the tier
                # name, so ``svc1`` replicated twice expands to ``svc11``
                # -- which must not also be a tier.  Colliding hostnames
                # silently merge two nodes' logs (found by ``repro
                # fuzz``, seed 24: 0% accuracy from crossed streams).
                if host in hostnames:
                    raise TopologyError(
                        f"topology {self.name!r}: hostname {host!r} used "
                        "twice (replica hostnames append the replica "
                        "index to the tier name; rename the tiers so the "
                        "expanded hostnames stay unique)"
                    )
                hostnames.add(host)
            for target_name in tier.downstream:
                if target_name not in seen:
                    hint = ", ".join(sorted(seen)) or "(none constructed yet)"
                    raise TopologyError(
                        f"tier {tier.name!r} calls {target_name!r}, which is not "
                        f"constructed before it; earlier tiers: {hint}. "
                        "List tiers back to front."
                    )
                # Role contracts of the engine's payload protocol: whole
                # requests flow between frontend/worker tiers, query work
                # items flow into backend tiers.
                target = self.tier(target_name)
                if tier.role == "frontend" and target.role != "worker":
                    raise TopologyError(
                        f"frontend tier {tier.name!r} must proxy to a worker "
                        f"tier, not {target_name!r} ({target.role})"
                    )
                if tier.role == "worker":
                    wanted = "worker" if tier.pattern == "chain" else "backend"
                    if target.role != wanted:
                        raise TopologyError(
                            f"worker tier {tier.name!r} (pattern "
                            f"{tier.pattern!r}) must call {wanted} tiers, "
                            f"not {target_name!r} ({target.role})"
                        )
            seen.add(tier.name)
        if self.frontend not in names:
            raise TopologyError(
                f"frontend {self.frontend!r} is not a tier; "
                f"tiers: {', '.join(names)}"
            )
        if self.frontend_tier().role != "frontend":
            raise TopologyError(f"tier {self.frontend!r} does not have role 'frontend'")
        if self.frontend_tier().replicas != 1:
            raise TopologyError("the frontend tier cannot be replicated (single entry point)")
        if not self.client_ips:
            raise TopologyError("at least one client IP is required")
        for tier_name, _program in self.ssh_noise:
            self.tier(tier_name)
        if self.db_noise_tier is not None and self.tier(self.db_noise_tier).role != "backend":
            raise TopologyError(
                f"db_noise_tier {self.db_noise_tier!r} must be a backend tier"
            )
        if self.network_fault_tier is not None:
            self.tier(self.network_fault_tier)


@dataclass(frozen=True)
class WorkloadSpec:
    """How emulated clients drive the frontend.

    * ``closed`` -- ``clients`` concurrent sessions alternating
      exponential think times (mean ``think_time``) with requests, the
      paper's RUBiS client emulator;
    * ``open`` -- Poisson arrivals at ``arrival_rate`` requests/s,
      independent of response times (each arrival is its own session);
    * ``bursty`` -- alternating on/off phases (``on_time`` seconds of
      Poisson arrivals at ``arrival_rate``, then ``off_time`` of silence).
    """

    kind: str = "closed"
    clients: int = 200
    think_time: float = 5.5
    arrival_rate: float = 50.0
    on_time: float = 1.0
    off_time: float = 1.0
    stages: WorkloadStages = field(default_factory=WorkloadStages)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise TopologyError(
                f"unknown workload kind {self.kind!r}; "
                f"valid kinds: {', '.join(WORKLOAD_KINDS)}"
            )
        if self.kind == "closed":
            if self.clients <= 0:
                raise TopologyError("closed-loop workloads need clients > 0")
            if self.think_time < 0:
                raise TopologyError("think_time must be non-negative")
        else:
            if self.arrival_rate <= 0:
                raise TopologyError(f"{self.kind} workloads need arrival_rate > 0")
            if self.kind == "bursty" and (self.on_time <= 0 or self.off_time < 0):
                raise TopologyError("bursty workloads need on_time > 0 and off_time >= 0")
