"""The scenario library: named topology + workload + catalogue bundles.

Each scenario is a :class:`Scenario` -- a validated
:class:`~repro.topology.spec.TopologySpec`, a default
:class:`~repro.topology.spec.WorkloadSpec` and an operation catalogue
(mix) -- runnable with one call::

    from repro.topology import run_scenario

    result = run_scenario("fanout_aggregator", clients=100, seed=7)
    trace = result.trace(window=0.010)
    print(trace.accuracy(result.ground_truth).accuracy)

Scenarios beyond the paper's RUBiS deployment:

``five_tier_chain``
    An edge proxy in front of three chained worker services backed by
    one store -- deep synchronous call chains (microservice style).
``fanout_aggregator``
    A gateway and an aggregator that scatters every request across three
    specialised backends and joins the replies; driven open loop
    (Poisson arrivals).
``cache_aside``
    An API tier doing cache-aside reads against a memcached-style cache
    (80 % hit ratio) backed by a store.
``replicated_lb``
    The application tier replicated three ways behind a round-robin load
    balancer, driven with bursty on/off load.

``rubis`` is the paper's own Fig. 7 deployment expressed as a spec (its
catalogue is :mod:`repro.topology.requests`); it produces byte-identical
traces to the original hand-written tiers.  The paper's knobs are
:class:`ScenarioConfig` fields: ``workers=(("app", 250),)`` is
``MaxThreads = 250`` (Fig. 16) and ``mix=mix_by_name("default")`` the
read-write mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..services.faults import FaultConfig
from ..services.noise import NoiseConfig
from ..sim.network import SegmentationPolicy
from ..sim.tcp_trace import DEFAULT_PROBE_OVERHEAD
from .deployment import RunSettings, TopologyDeployment, TopologyRunResult
from .operations import QuerySpec, RequestType
from .requests import BROWSE_ONLY_MIX
from .spec import TierSpec, TopologyError, TopologySpec, WorkloadSpec
from .workload import WorkloadStages


@dataclass(frozen=True)
class Scenario:
    """One runnable entry of the library."""

    name: str
    description: str
    topology: TopologySpec
    workload: WorkloadSpec
    mix: Tuple[Tuple[RequestType, float], ...]


# ---------------------------------------------------------------------------
# RUBiS (the paper's deployment, as data)
# ---------------------------------------------------------------------------

#: Addresses of the emulated RUBiS cluster (one tier per node, Fig. 7).
RUBIS_WEB_IP = "10.0.0.1"
RUBIS_APP_IP = "10.0.0.2"
RUBIS_DB_IP = "10.0.0.3"
RUBIS_CLIENT_IPS = ("10.0.1.1", "10.0.1.2", "10.0.1.3")
RUBIS_WEB_PORT = 80
RUBIS_APP_PORT = 8080
RUBIS_DB_PORT = 3306


def rubis_topology() -> TopologySpec:
    """The three-tier RUBiS deployment of Fig. 7 as a topology spec.

    Pool sizes are the paper's defaults: 256 Apache prefork workers,
    ``MaxThreads = 40`` JBoss threads, 18 MySQL engine slots.
    """
    return TopologySpec(
        name="rubis",
        tiers=(
            TierSpec(
                name="db", ip=RUBIS_DB_IP, port=RUBIS_DB_PORT, program="mysqld",
                role="backend", stream_prefix="db", workers=18,
            ),
            TierSpec(
                name="app", ip=RUBIS_APP_IP, port=RUBIS_APP_PORT, program="java",
                role="worker", stream_prefix="app", workers=40,
                downstream=("db",), delay_fault_target=True,
            ),
            TierSpec(
                name="www", ip=RUBIS_WEB_IP, port=RUBIS_WEB_PORT, program="httpd",
                role="frontend", stream_prefix="httpd", workers=256,
                downstream=("app",),
            ),
        ),
        frontend="www",
        client_ips=RUBIS_CLIENT_IPS,
        ssh_noise=(("www", "sshd"), ("db", "rlogind")),
        db_noise_tier="db",
        network_fault_tier="app",
    )


def _rubis() -> Scenario:
    return Scenario(
        name="rubis",
        description="The paper's three-tier auction site (httpd -> JBoss -> MySQL)",
        topology=rubis_topology(),
        workload=WorkloadSpec(kind="closed", clients=200, think_time=5.5),
        mix=BROWSE_ONLY_MIX,
    )


# ---------------------------------------------------------------------------
# five_tier_chain
# ---------------------------------------------------------------------------

_CHAIN_BROWSE = RequestType(
    name="ChainBrowse",
    app_cpu=0.003,
    queries=(
        QuerySpec("chain_list", engine_delay=0.018, reply_bytes=5_000),
        QuerySpec("chain_detail", engine_delay=0.022, reply_bytes=7_000, touches_items=True),
    ),
    reply_bytes=16_000,
    app_reply_bytes=12_000,
)

_CHAIN_CHECKOUT = RequestType(
    name="ChainCheckout",
    app_cpu=0.005,
    queries=(
        QuerySpec("chain_cart", engine_delay=0.020, reply_bytes=3_000),
        QuerySpec("chain_stock", engine_delay=0.024, reply_bytes=2_000, touches_items=True),
        QuerySpec("chain_order", engine_delay=0.028, reply_bytes=900),
        QuerySpec("chain_commit", engine_delay=0.016, reply_bytes=400),
    ),
    reply_bytes=9_000,
    app_reply_bytes=7_000,
    writes=True,
)


def _five_tier_chain() -> Scenario:
    topology = TopologySpec(
        name="five_tier_chain",
        tiers=(
            TierSpec(
                name="store", ip="10.1.0.5", port=5432, program="storedb",
                role="backend", workers=16,
            ),
            TierSpec(
                name="svc3", ip="10.1.0.4", port=7003, program="svc3d",
                role="worker", workers=32, downstream=("store",),
            ),
            TierSpec(
                name="svc2", ip="10.1.0.3", port=7002, program="svc2d",
                role="worker", workers=32, downstream=("svc3",),
                pattern="chain", cpu_scale=0.8, delay_fault_target=True,
            ),
            TierSpec(
                name="svc1", ip="10.1.0.2", port=7001, program="svc1d",
                role="worker", workers=32, downstream=("svc2",),
                pattern="chain", cpu_scale=0.6,
            ),
            TierSpec(
                name="edge", ip="10.1.0.1", port=80, program="edged",
                role="frontend", workers=128, downstream=("svc1",),
            ),
        ),
        frontend="edge",
        client_ips=("10.1.1.1", "10.1.1.2"),
        ssh_noise=(("edge", "sshd"), ("store", "rlogind")),
        db_noise_tier="store",
        network_fault_tier="svc2",
    )
    return Scenario(
        name="five_tier_chain",
        description="Edge proxy -> three chained services -> store (deep call chain)",
        topology=topology,
        workload=WorkloadSpec(kind="closed", clients=60, think_time=2.5),
        mix=((_CHAIN_BROWSE, 0.8), (_CHAIN_CHECKOUT, 0.2)),
    )


# ---------------------------------------------------------------------------
# fanout_aggregator
# ---------------------------------------------------------------------------

_FANOUT_SEARCH = RequestType(
    name="FanoutSearch",
    app_cpu=0.004,
    queries=(
        QuerySpec("profile_lookup", engine_delay=0.016, reply_bytes=3_000),
        QuerySpec("listing_search", engine_delay=0.026, reply_bytes=12_000, touches_items=True),
        QuerySpec("review_scores", engine_delay=0.018, reply_bytes=5_000),
    ),
    reply_bytes=24_000,
    app_reply_bytes=19_000,
)

_FANOUT_DASHBOARD = RequestType(
    name="FanoutDashboard",
    app_cpu=0.006,
    queries=(
        QuerySpec("profile_full", engine_delay=0.020, reply_bytes=4_000),
        QuerySpec("listing_mine", engine_delay=0.024, reply_bytes=8_000, touches_items=True),
        QuerySpec("review_mine", engine_delay=0.020, reply_bytes=6_000),
        QuerySpec("profile_badges", engine_delay=0.014, reply_bytes=1_500),
        QuerySpec("listing_watched", engine_delay=0.022, reply_bytes=7_000, touches_items=True),
        QuerySpec("review_replies", engine_delay=0.018, reply_bytes=4_000),
    ),
    reply_bytes=30_000,
    app_reply_bytes=24_000,
)


def _fanout_aggregator() -> Scenario:
    topology = TopologySpec(
        name="fanout_aggregator",
        tiers=(
            TierSpec(
                name="profiles", ip="10.2.0.11", port=9001, program="profiled",
                role="backend", workers=8,
            ),
            TierSpec(
                name="listings", ip="10.2.0.12", port=9002, program="listingd",
                role="backend", workers=8,
            ),
            TierSpec(
                name="reviews", ip="10.2.0.13", port=9003, program="reviewd",
                role="backend", workers=8,
            ),
            TierSpec(
                name="agg", ip="10.2.0.2", port=7000, program="aggd",
                role="worker", workers=48,
                downstream=("profiles", "listings", "reviews"),
                pattern="fanout", delay_fault_target=True,
            ),
            TierSpec(
                name="gateway", ip="10.2.0.1", port=80, program="gatewayd",
                role="frontend", workers=128, downstream=("agg",),
            ),
        ),
        frontend="gateway",
        client_ips=("10.2.1.1", "10.2.1.2", "10.2.1.3"),
        ssh_noise=(("gateway", "sshd"), ("listings", "rlogind")),
        db_noise_tier="listings",
        network_fault_tier="agg",
    )
    return Scenario(
        name="fanout_aggregator",
        description="Gateway -> aggregator scattering over three backends (fan-out/join)",
        topology=topology,
        workload=WorkloadSpec(kind="open", arrival_rate=25.0),
        mix=((_FANOUT_SEARCH, 0.7), (_FANOUT_DASHBOARD, 0.3)),
    )


# ---------------------------------------------------------------------------
# cache_aside
# ---------------------------------------------------------------------------

_CACHED_READ = RequestType(
    name="CachedRead",
    app_cpu=0.003,
    queries=(
        QuerySpec("object_get", engine_delay=0.024, reply_bytes=6_000, touches_items=True),
        QuerySpec("object_meta", engine_delay=0.018, reply_bytes=2_000),
    ),
    reply_bytes=14_000,
    app_reply_bytes=11_000,
)

_CACHED_LISTING = RequestType(
    name="CachedListing",
    app_cpu=0.004,
    queries=(
        QuerySpec("page_fragment", engine_delay=0.026, reply_bytes=9_000, touches_items=True),
        QuerySpec("page_sidebar", engine_delay=0.020, reply_bytes=4_000),
        QuerySpec("page_footer", engine_delay=0.014, reply_bytes=1_500),
    ),
    reply_bytes=20_000,
    app_reply_bytes=16_000,
)


def _cache_aside() -> Scenario:
    topology = TopologySpec(
        name="cache_aside",
        tiers=(
            TierSpec(
                name="store", ip="10.3.0.4", port=3306, program="mysqld",
                role="backend", workers=12,
            ),
            TierSpec(
                name="cache", ip="10.3.0.3", port=11211, program="memcached",
                role="backend", workers=64, service_scale=0.05,
            ),
            TierSpec(
                name="api", ip="10.3.0.2", port=8080, program="apid",
                role="worker", workers=40, downstream=("cache", "store"),
                pattern="cache_aside", cache_hit_ratio=0.8,
                delay_fault_target=True,
            ),
            TierSpec(
                name="web", ip="10.3.0.1", port=80, program="nginx",
                role="frontend", workers=128, downstream=("api",),
            ),
        ),
        frontend="web",
        client_ips=("10.3.1.1", "10.3.1.2"),
        ssh_noise=(("web", "sshd"), ("store", "rlogind")),
        db_noise_tier="store",
        network_fault_tier="api",
    )
    return Scenario(
        name="cache_aside",
        description="API tier doing cache-aside reads (80% hits) against cache + store",
        topology=topology,
        workload=WorkloadSpec(kind="closed", clients=80, think_time=2.0),
        mix=((_CACHED_READ, 0.6), (_CACHED_LISTING, 0.4)),
    )


# ---------------------------------------------------------------------------
# replicated_lb
# ---------------------------------------------------------------------------

_LB_BROWSE = RequestType(
    name="LbBrowse",
    app_cpu=0.004,
    queries=(
        QuerySpec("lb_listing", engine_delay=0.022, reply_bytes=8_000, touches_items=True),
        QuerySpec("lb_counts", engine_delay=0.016, reply_bytes=2_000),
    ),
    reply_bytes=18_000,
    app_reply_bytes=14_000,
)

_LB_DETAIL = RequestType(
    name="LbDetail",
    app_cpu=0.005,
    queries=(
        QuerySpec("lb_item", engine_delay=0.024, reply_bytes=6_000, touches_items=True),
        QuerySpec("lb_related", engine_delay=0.026, reply_bytes=8_000, touches_items=True),
        QuerySpec("lb_seller", engine_delay=0.018, reply_bytes=2_500),
    ),
    reply_bytes=22_000,
    app_reply_bytes=17_000,
)


def _replicated_lb() -> Scenario:
    topology = TopologySpec(
        name="replicated_lb",
        tiers=(
            TierSpec(
                name="db", ip="10.4.0.8", port=3306, program="mysqld",
                role="backend", workers=16,
            ),
            TierSpec(
                name="app", ip="10.4.0.16", port=8080, program="appd",
                role="worker", workers=24, replicas=3, downstream=("db",),
                delay_fault_target=True,
            ),
            TierSpec(
                name="lb", ip="10.4.0.1", port=80, program="haproxy",
                role="frontend", workers=160, downstream=("app",),
            ),
        ),
        frontend="lb",
        client_ips=("10.4.1.1", "10.4.1.2", "10.4.1.3"),
        ssh_noise=(("lb", "sshd"), ("db", "rlogind")),
        db_noise_tier="db",
        network_fault_tier="app",
    )
    return Scenario(
        name="replicated_lb",
        description="Three app replicas behind a round-robin LB, bursty on/off load",
        topology=topology,
        workload=WorkloadSpec(
            kind="bursty", arrival_rate=40.0, on_time=1.0, off_time=0.8
        ),
        mix=((_LB_BROWSE, 0.65), (_LB_DETAIL, 0.35)),
    )


#: Scenario builders by name.  Builders (not instances): a scenario is
#: built on first use and :func:`get_scenario` memoises it.
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "rubis": _rubis,
    "five_tier_chain": _five_tier_chain,
    "fanout_aggregator": _fanout_aggregator,
    "cache_aside": _cache_aside,
    "replicated_lb": _replicated_lb,
}

_CACHE: Dict[str, Scenario] = {}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario, raising a helpful error for typos."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available scenarios: "
            f"{', '.join(scenario_names())}"
        ) from None
    scenario = _CACHE.get(name)
    if scenario is None:
        scenario = builder()
        _CACHE[name] = scenario
    return scenario


@dataclass
class ScenarioConfig:
    """Everything that defines one scenario run.

    ``None`` workload fields keep the scenario's own defaults; setting
    ``clients``/``arrival_rate``/... patches the scenario's
    :class:`~repro.topology.spec.WorkloadSpec` for this run.  ``workers``
    patches pool sizes (``TierSpec.workers``, on every replica of the
    named tier) and ``mix`` replaces the scenario's request mix, so the
    paper's RUBiS runs read ``ScenarioConfig("rubis", workers=(("app",
    250),), mix=mix_by_name("default"))``.
    """

    scenario: str = "rubis"
    clients: Optional[int] = None
    arrival_rate: Optional[float] = None
    think_time: Optional[float] = None
    workload_kind: Optional[str] = None
    stages: Optional[WorkloadStages] = None
    #: (tier name, pool size) pairs overriding the scenario's pool sizes
    workers: Tuple[Tuple[str, int], ...] = ()
    #: (request type, weight) pairs replacing the scenario's mix
    mix: Optional[Tuple[Tuple[RequestType, float], ...]] = None
    seed: int = 1
    clock_skew: float = 0.001
    tracing_enabled: bool = True
    probe_overhead: float = DEFAULT_PROBE_OVERHEAD
    faults: FaultConfig = field(default_factory=FaultConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    segmentation: SegmentationPolicy = field(default_factory=SegmentationPolicy)
    network_latency: float = 200e-6
    network_bandwidth_mbps: float = 100.0
    cpus_per_node: int = 2

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside the run: an unknown
        # scenario raises ValueError, an invalid workload patch, pool
        # size or clock skew TopologyError (a ValueError), each naming
        # the field or listing the valid names.
        if self.clock_skew < 0:
            raise TopologyError(
                f"clock_skew must be non-negative, got {self.clock_skew:g}"
            )
        self.run_inputs()

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **kwargs)

    def resolved_workload(self, default: WorkloadSpec) -> WorkloadSpec:
        """The scenario's workload spec with this config's patches applied."""
        patches = {}
        if self.workload_kind is not None:
            patches["kind"] = self.workload_kind
        if self.clients is not None:
            patches["clients"] = self.clients
        if self.arrival_rate is not None:
            patches["arrival_rate"] = self.arrival_rate
        if self.think_time is not None:
            patches["think_time"] = self.think_time
        if self.stages is not None:
            patches["stages"] = self.stages
        return replace(default, **patches) if patches else default

    def resolved_topology(self, default: TopologySpec) -> TopologySpec:
        """The scenario's topology with this config's pool sizes applied."""
        if not self.workers:
            return default
        sizes = dict(self.workers)
        for name in sizes:
            default.tier(name)  # an unknown name raises, listing the tiers
        tiers = tuple(
            replace(tier, workers=sizes.get(tier.name, tier.workers))
            for tier in default.tiers
        )
        return replace(default, tiers=tiers)  # re-validated: sizes must be > 0

    def run_settings(self) -> RunSettings:
        """The environment knobs, copied field by field (a new
        ``RunSettings`` field is forwarded automatically)."""
        return RunSettings(**{f.name: getattr(self, f.name) for f in fields(RunSettings)})

    def run_inputs(self) -> Tuple[TopologySpec, WorkloadSpec, tuple, RunSettings]:
        """What the run is built from: the scenario's topology, workload
        and mix with this config's patches applied, and the run settings."""
        scenario = get_scenario(self.scenario)
        return (
            self.resolved_topology(scenario.topology),
            self.resolved_workload(scenario.workload),
            self.mix if self.mix is not None else scenario.mix,
            self.run_settings(),
        )

    def deployment(self) -> TopologyDeployment:
        """The simulated cluster this config describes, built but not run."""
        topology, workload, mix, settings = self.run_inputs()
        return TopologyDeployment(topology, workload, mix, settings, config=self)


def run_scenario(
    config: Optional[ScenarioConfig] = None, **overrides
) -> TopologyRunResult:
    """Build and run one scenario; keyword overrides patch the config.

    ``run_scenario("cache_aside", clients=50)`` also works: a plain name
    may be passed instead of a config.
    """
    if isinstance(config, str):
        config = ScenarioConfig(scenario=config)
    base = config or ScenarioConfig()
    if overrides:
        base = base.with_overrides(**overrides)
    return base.deployment().run()
