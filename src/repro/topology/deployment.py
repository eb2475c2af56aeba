"""Build, run and trace one experiment on any declarative topology.

:class:`TopologyDeployment` (built from a
:class:`~repro.topology.library.ScenarioConfig` by its ``deployment()``)
instantiates the simulated cluster a
:class:`~repro.topology.spec.TopologySpec` describes (nodes with skewed
clocks, network fabric, TCP_TRACE probes, tier engines, workload
emulator, noise generators), runs it to completion and gathers a
:class:`TopologyRunResult` -- per-node logs, ground truth and client
metrics.  ``result.trace()`` then runs PreciseTracer over the logs with a
:class:`~repro.core.log_format.FrontendSpec` derived from the topology,
so the batch, streaming and sharded pipelines all work unchanged on any
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.accuracy import GroundTruthRequest
from ..core.activity import Activity
from ..core.log_format import ActivityClassifier, FrontendSpec, RawRecord
from ..core.tracer import PreciseTracer, TraceResult
from ..services.faults import FaultConfig
from ..services.noise import MysqlClientNoiseGenerator, NoiseConfig, SshNoiseGenerator
from ..sim.clock import NodeClock, spread_skews
from ..sim.kernel import Environment
from ..sim.network import Network, NetworkFabric, SegmentationPolicy
from ..sim.node import Node
from ..sim.randomness import RandomStreams
from ..sim.tcp_trace import DEFAULT_PROBE_OVERHEAD, TraceCollector
from .engine import ROLE_ENGINES, ReplicaRouter, TierGroup
from .groundtruth import GroundTruthRecorder
from .operations import QuerySpec
from .spec import TopologySpec, WorkloadSpec
from .workload import ClientMetrics, make_emulator


@dataclass
class RunSettings:
    """Environment knobs shared by every scenario (probes, clocks, faults)."""

    tracing_enabled: bool = True
    probe_overhead: float = DEFAULT_PROBE_OVERHEAD
    clock_skew: float = 0.001
    seed: int = 1
    faults: FaultConfig = field(default_factory=FaultConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    segmentation: SegmentationPolicy = field(default_factory=SegmentationPolicy)
    network_latency: float = 200e-6
    network_bandwidth_mbps: float = 100.0
    cpus_per_node: int = 2


def noise_query(noise: NoiseConfig) -> QuerySpec:
    """The (cheap) query the external MySQL client keeps issuing."""
    return QuerySpec(
        name="noise_select",
        db_cpu=noise.mysql_db_cpu,
        dispatch_delay=0.0005,
        engine_delay=noise.mysql_engine_delay,
        reply_bytes=noise.mysql_reply_bytes,
        query_bytes=noise.mysql_query_bytes,
    )


@dataclass
class TopologyRunResult:
    """Everything produced by one experiment run, on any topology."""

    config: object
    topology: TopologySpec
    workload: WorkloadSpec
    metrics: ClientMetrics
    ground_truth: Dict[int, GroundTruthRequest]
    records_by_node: Dict[str, List[RawRecord]]
    total_activities: int
    simulated_duration: float
    requests_issued: int
    requests_served_frontend: int
    cpu_utilisation: Dict[str, float]
    noise_activities: int = 0
    #: the run's maximum node clock skew (from RunSettings; exposed here
    #: because ``config`` is an opaque object that need not carry it)
    clock_skew: float = 0.001

    # -- tracing ------------------------------------------------------------

    def frontend_spec(self) -> FrontendSpec:
        """Network-level description of the service entry point."""
        frontend = self.topology.frontend_tier()
        return FrontendSpec(
            ip=frontend.ip,
            port=frontend.port,
            internal_ips=self.topology.internal_ips(),
        )

    def make_tracer(self, window: float = 0.010) -> PreciseTracer:
        """A PreciseTracer configured for this deployment.

        ``sshd``/``rlogind``-style noise is filtered by program name,
        exactly as in Section 5.3.3; external database-client noise
        cannot be filtered this way and is left to the ranker's
        ``is_noise`` test.
        """
        return PreciseTracer(
            frontends=[self.frontend_spec()],
            window=window,
            ignore_programs=set(self.topology.ignore_programs),
        )

    def all_records(self) -> List[RawRecord]:
        records: List[RawRecord] = []
        for node_records in self.records_by_node.values():
            records.extend(node_records)
        return records

    def activities(self, window_classifier: Optional[ActivityClassifier] = None) -> List[Activity]:
        """Typed activities of the whole trace (classified, noise-filtered)."""
        classifier = window_classifier or ActivityClassifier(
            frontends=[self.frontend_spec()],
            ignore_programs=set(self.topology.ignore_programs),
        )
        return classifier.classify_all(self.all_records())

    def trace(self, window: float = 0.010) -> TraceResult:
        """Run PreciseTracer over the gathered logs."""
        return self.make_tracer(window=window).trace_records(self.all_records())

    # -- metrics shortcuts -----------------------------------------------------

    @property
    def throughput(self) -> float:
        return self.metrics.throughput()

    @property
    def mean_response_time(self) -> float:
        return self.metrics.mean_response_time()

    @property
    def completed_requests(self) -> int:
        return self.metrics.completed_count


class TopologyDeployment:
    """Builds the simulated cluster for one topology + workload + catalogue."""

    def __init__(
        self,
        topology: TopologySpec,
        workload: WorkloadSpec,
        mix: Sequence[Tuple[object, float]],
        settings: Optional[RunSettings] = None,
        config: object = None,
    ) -> None:
        self.topology = topology
        self.workload = workload
        self.mix = list(mix)
        self.settings = settings or RunSettings()
        self.config = config if config is not None else topology.name
        settings = self.settings

        self.env = Environment()
        self.rng = RandomStreams(seed=settings.seed)
        self.ground_truth = GroundTruthRecorder()

        # Front-to-back hostname order drives skew assignment (the
        # frontend holds the reference clock), probe attachment and the
        # reported utilisation -- matching the original RUBiS harness.
        hostnames = topology.service_hostnames()
        skews = spread_skews(hostnames, settings.clock_skew)
        self.service_nodes: Dict[str, Node] = {}
        node_of_tier_replica: Dict[Tuple[str, int], Node] = {}
        for tier in topology.front_to_back():
            for index, (host, ip, _port) in enumerate(tier.replica_addresses()):
                node = Node(
                    self.env, host, ip, cpus=settings.cpus_per_node, clock=skews[host]
                )
                self.service_nodes[host] = node
                node_of_tier_replica[(tier.name, index)] = node
        self.client_nodes = [
            Node(self.env, f"client{i + 1}", ip, cpus=2, clock=NodeClock())
            for i, ip in enumerate(topology.client_ips)
        ]
        self.workstation = Node(self.env, "workstation", topology.workstation_ip, cpus=2)

        fabric = NetworkFabric(
            self.env,
            base_latency=settings.network_latency,
            bandwidth_bytes_per_s=settings.network_bandwidth_mbps * 1e6 / 8.0,
        )
        if settings.faults.ejb_network is not None:
            fault_tier = topology.network_fault_tier or self._default_fault_tier()
            if fault_tier is not None:
                for host, _ip, _port in topology.tier(fault_tier).replica_addresses():
                    settings.faults.ejb_network.apply(fabric, host)
        self.network = Network(self.env, fabric=fabric, segmentation=settings.segmentation)

        self.collector = TraceCollector()
        if settings.tracing_enabled:
            for host in hostnames:
                self.collector.attach(
                    self.service_nodes[host],
                    overhead_per_activity=settings.probe_overhead,
                )

        # Tier engines, in construction order (back to front): every
        # downstream tier is registered with the router before an
        # upstream tier could connect to it.
        self.router = ReplicaRouter()
        self.tier_groups: Dict[str, TierGroup] = {}
        for tier in topology.tiers:
            group = TierGroup(tier)
            addresses = []
            for index, (_host, ip, port) in enumerate(tier.replica_addresses()):
                engine = ROLE_ENGINES[tier.role](
                    self.env,
                    node_of_tier_replica[(tier.name, index)],
                    self.network,
                    self.ground_truth,
                    self.rng,
                    tier,
                    self.router,
                    settings.faults,
                )
                group.replicas.append(engine)
                addresses.append((ip, port))
            self.router.register(tier.name, addresses)
            self.tier_groups[tier.name] = group

        frontend = topology.frontend_tier()
        self.emulator = make_emulator(
            workload,
            env=self.env,
            network=self.network,
            client_nodes=self.client_nodes,
            frontend_ip=frontend.ip,
            frontend_port=frontend.port,
            ground_truth=self.ground_truth,
            rng=self.rng,
            mix=self.mix,
        )

        stop_at = workload.stages.new_request_deadline
        self.noise_generators = []
        if settings.noise.enabled:
            for tier_name, program in topology.ssh_noise:
                self.noise_generators.append(
                    SshNoiseGenerator(
                        self.env,
                        self.network,
                        traced_node=self.tier_groups[tier_name].primary.node,
                        external_node=self.workstation,
                        config=settings.noise,
                        rng=self.rng,
                        program=program,
                        stop_at=stop_at,
                    )
                )
            if topology.db_noise_tier is not None:
                noise_tier = topology.tier(topology.db_noise_tier)
                self.noise_generators.append(
                    MysqlClientNoiseGenerator(
                        self.env,
                        self.network,
                        external_node=self.workstation,
                        db_ip=noise_tier.ip,
                        db_port=noise_tier.port,
                        config=settings.noise,
                        rng=self.rng,
                        query=noise_query(settings.noise),
                        stop_at=stop_at,
                    )
                )

    def _default_fault_tier(self) -> Optional[str]:
        """The network fault falls back to the first worker tier, front to back."""
        for tier in self.topology.front_to_back():
            if tier.role == "worker":
                return tier.name
        return None

    def tier(self, name: str) -> TierGroup:
        return self.tier_groups[name]

    def run(self) -> TopologyRunResult:
        """Run the emulation to completion and gather results."""
        self.emulator.start()
        for generator in self.noise_generators:
            generator.start()
        self.env.run()

        elapsed = self.env.now
        cpu_utilisation = {
            host: self.service_nodes[host].cpu_utilisation(elapsed)
            for host in self.topology.service_hostnames()
        }
        noise_activities = sum(
            getattr(generator, "exchanges", 0) * 2 + getattr(generator, "queries_issued", 0) * 2
            for generator in self.noise_generators
        )
        frontend_group = self.tier_groups[self.topology.frontend]
        return TopologyRunResult(
            config=self.config,
            topology=self.topology,
            workload=self.workload,
            metrics=self.emulator.metrics,
            ground_truth=self.ground_truth.completed(),
            records_by_node=self.collector.records_by_node(),
            total_activities=self.collector.total_records(),
            simulated_duration=elapsed,
            requests_issued=self.emulator.issued,
            requests_served_frontend=frontend_group.requests_served,
            cpu_utilisation=cpu_utilisation,
            noise_activities=noise_activities,
            clock_skew=self.settings.clock_skew,
        )
