"""Tests for the declarative topology subsystem: spec validation, the
replica router, workload drivers and the eager config validation."""

import pytest

from repro.topology import ScenarioConfig, TierSpec, TopologyError, TopologySpec, WorkloadSpec
from repro.topology.engine import ReplicaRouter
from repro.topology.library import get_scenario, rubis_topology, scenario_names
from repro.topology.requests import mix_by_name
from repro.topology.spec import replica_hostname, replica_ip


def backend(name="db", ip="10.9.0.3", port=3306, **kwargs):
    return TierSpec(name=name, ip=ip, port=port, program="mysqld", role="backend", **kwargs)


def worker(name="app", ip="10.9.0.2", port=8080, downstream=("db",), **kwargs):
    return TierSpec(
        name=name, ip=ip, port=port, program="appd", role="worker",
        downstream=downstream, **kwargs
    )


def frontend(name="www", ip="10.9.0.1", port=80, downstream=("app",), **kwargs):
    return TierSpec(
        name=name, ip=ip, port=port, program="httpd", role="frontend",
        downstream=downstream, **kwargs
    )


def topology(*tiers, **kwargs):
    kwargs.setdefault("frontend", "www")
    return TopologySpec(name="test", tiers=tuple(tiers), **kwargs)


class TestTierSpecValidation:
    def test_unknown_role_lists_valid_roles(self):
        with pytest.raises(TopologyError, match="frontend, worker, backend"):
            topology(TierSpec(name="x", ip="10.9.0.9", port=1, program="p", role="database"))

    def test_unknown_pattern_lists_valid_patterns(self):
        with pytest.raises(TopologyError, match="sequential, chain, fanout, cache_aside"):
            topology(backend(), worker(pattern="scatter"), frontend())

    def test_frontend_needs_exactly_one_downstream(self):
        with pytest.raises(TopologyError, match="exactly one downstream"):
            topology(backend(), worker(), frontend(downstream=()))

    def test_backend_cannot_have_downstreams(self):
        with pytest.raises(TopologyError, match="cannot have downstreams"):
            topology(backend(downstream=("db",)))

    def test_cache_aside_needs_cache_and_store(self):
        with pytest.raises(TopologyError, match="exactly two downstream"):
            topology(backend(), worker(pattern="cache_aside"), frontend())

    def test_hit_ratio_bounds(self):
        with pytest.raises(TopologyError, match="cache_hit_ratio"):
            topology(backend(), worker(cache_hit_ratio=1.5), frontend())

    def test_workers_and_replicas_positive(self):
        with pytest.raises(TopologyError, match="workers must be positive"):
            topology(backend(workers=0))
        with pytest.raises(TopologyError, match="replicas must be positive"):
            topology(backend(replicas=0))


class TestTopologySpecValidation:
    def test_downstream_must_be_constructed_before_caller(self):
        with pytest.raises(TopologyError, match="List tiers back to front"):
            topology(frontend(), worker(), backend())

    def test_unknown_downstream_is_rejected(self):
        with pytest.raises(TopologyError, match="not\\s+constructed before"):
            topology(backend(), worker(downstream=("mainframe",)), frontend())

    def test_frontend_must_exist(self):
        with pytest.raises(TopologyError, match="is not a tier"):
            topology(backend(), worker(), frontend(), frontend="edge")

    def test_frontend_must_have_frontend_role(self):
        with pytest.raises(TopologyError, match="does not have role 'frontend'"):
            topology(backend(), worker(), frontend(), frontend="app")

    def test_duplicate_addresses_rejected(self):
        with pytest.raises(TopologyError, match="used twice"):
            topology(backend(), worker(ip="10.9.0.3", port=3306), frontend())

    def test_expanded_replica_hostnames_must_be_unique(self):
        # Replica hostnames append the replica index to the tier name, so
        # a tier "app" x2 expands to hosts app1/app2 and collides with a
        # literal tier named "app2": its logs would be attributed to the
        # wrong tier and the paths silently truncate (fuzz seed 24).
        with pytest.raises(TopologyError, match="hostname 'app2' used twice"):
            topology(
                backend(),
                worker(name="app", replicas=2),
                worker(name="app2", ip="10.9.0.4", port=8081),
                frontend(downstream=("app2",)),
            )

    def test_frontend_cannot_be_replicated(self):
        with pytest.raises(TopologyError, match="single entry point"):
            topology(backend(), worker(), frontend(replicas=2))

    def test_db_noise_tier_must_be_backend(self):
        with pytest.raises(TopologyError, match="must be a backend"):
            topology(backend(), worker(), frontend(), db_noise_tier="app")

    def test_frontend_cannot_proxy_straight_to_a_backend(self):
        # The engine's payload protocol: whole requests go to workers,
        # query work items go to backends.
        with pytest.raises(TopologyError, match="must proxy to a worker"):
            topology(backend(), frontend(downstream=("db",)))

    def test_sequential_worker_must_call_backends(self):
        with pytest.raises(TopologyError, match="must call backend tiers"):
            topology(
                backend(),
                worker(name="inner", ip="10.9.0.4", port=8081),
                worker(downstream=("inner",)),
                frontend(),
            )

    def test_chain_worker_must_call_a_worker(self):
        with pytest.raises(TopologyError, match="must call worker tiers"):
            topology(backend(), worker(pattern="chain", downstream=("db",)), frontend())

    def test_valid_topology_passes(self):
        spec = topology(backend(), worker(), frontend())
        assert spec.frontend_tier().role == "frontend"
        assert spec.service_hostnames() == ["www", "app", "db"]
        assert spec.internal_ips() == frozenset({"10.9.0.1", "10.9.0.2", "10.9.0.3"})


class TestReplicas:
    def test_replica_naming_and_ips(self):
        assert replica_hostname("app", 0, 1) == "app"
        assert replica_hostname("app", 0, 3) == "app1"
        assert replica_hostname("app", 2, 3) == "app3"
        assert replica_ip("10.4.0.16", 0) == "10.4.0.16"
        assert replica_ip("10.4.0.16", 2) == "10.4.0.18"

    def test_replica_addresses_expand(self):
        tier = worker(replicas=3, ip="10.4.0.16")
        assert tier.replica_addresses() == [
            ("app1", "10.4.0.16", 8080),
            ("app2", "10.4.0.17", 8080),
            ("app3", "10.4.0.18", 8080),
        ]

    def test_router_round_robin(self):
        router = ReplicaRouter()
        router.register("app", [("10.4.0.16", 8080), ("10.4.0.17", 8080)])
        picks = [router.next_address("app") for _ in range(4)]
        assert picks == [
            ("10.4.0.16", 8080), ("10.4.0.17", 8080),
            ("10.4.0.16", 8080), ("10.4.0.17", 8080),
        ]
        with pytest.raises(KeyError):
            router.next_address("nope")


class TestWorkloadSpecValidation:
    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(TopologyError, match="closed, open, bursty"):
            WorkloadSpec(kind="poisson")

    def test_closed_needs_clients(self):
        with pytest.raises(TopologyError, match="clients > 0"):
            WorkloadSpec(kind="closed", clients=0)

    def test_open_needs_rate(self):
        with pytest.raises(TopologyError, match="arrival_rate > 0"):
            WorkloadSpec(kind="open", arrival_rate=0.0)

    def test_bursty_needs_on_time(self):
        with pytest.raises(TopologyError, match="on_time"):
            WorkloadSpec(kind="bursty", arrival_rate=10.0, on_time=0.0)


class TestEagerConfigValidation:
    def test_rubis_config_rejects_unknown_workload_at_construction(self):
        with pytest.raises(KeyError, match="browse_only, default"):
            ScenarioConfig("rubis", mix=mix_by_name("brose_only"))

    def test_rubis_config_rejects_unknown_workload_via_overrides(self):
        with pytest.raises(TopologyError, match="valid kinds"):
            ScenarioConfig("rubis").with_overrides(workload_kind="bogus")

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"workload_kind": "nonsense"}, "closed, open, bursty"),
            ({"clients": 0}, "clients > 0"),
            ({"clients": -5}, "clients > 0"),
            ({"think_time": -1.0}, "think_time must be non-negative"),
            ({"workload_kind": "open", "arrival_rate": -1.0}, "arrival_rate > 0"),
            ({"clock_skew": -1.0}, "clock_skew must be non-negative"),
        ],
        ids=[
            "kind",
            "zero_clients",
            "negative_clients",
            "think_time",
            "arrival_rate",
            "clock_skew",
        ],
    )
    def test_invalid_workload_patch_fails_at_construction(self, patch, message):
        with pytest.raises(TopologyError, match=message):
            ScenarioConfig("rubis", **patch)

    def test_workers_naming_an_unknown_tier_lists_the_tiers(self):
        with pytest.raises(TopologyError, match="unknown tier 'web'; tiers: db, app, www"):
            ScenarioConfig("rubis", workers=(("web", 4),))

    @pytest.mark.parametrize("size", [0, -3])
    def test_workers_pool_size_must_be_positive(self, size):
        with pytest.raises(TopologyError, match="tier 'app': workers must be positive"):
            ScenarioConfig("rubis", workers=(("app", size),))

    def test_scenario_config_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="available scenarios"):
            ScenarioConfig(scenario="six_tier_chain")

    def test_scenario_config_lists_the_library(self):
        with pytest.raises(ValueError) as excinfo:
            ScenarioConfig(scenario="nope")
        for name in scenario_names():
            assert name in str(excinfo.value)


class TestRubisSpec:
    def test_rubis_topology_matches_the_paper_deployment(self):
        spec = rubis_topology()
        assert spec.tier_names() == ["db", "app", "www"]
        assert spec.frontend == "www"
        assert spec.tier("app").workers == 40
        assert spec.tier("db").workers == 18
        assert spec.tier("www").workers == 256
        assert spec.service_hostnames() == ["www", "app", "db"]

    def test_rubis_topology_is_parameterised_by_the_config_knobs(self):
        config = ScenarioConfig("rubis", workers=(("www", 8), ("app", 7), ("db", 3)))
        spec = config.resolved_topology(rubis_topology())
        assert spec.tier("www").workers == 8
        assert spec.tier("app").workers == 7
        assert spec.tier("db").workers == 3
        assert ScenarioConfig().resolved_topology(rubis_topology()) == rubis_topology()

    def test_workers_apply_to_every_replica(self):
        config = ScenarioConfig("replicated_lb", workers=(("app", 2),))
        deployment = config.deployment()
        replicas = deployment.tier_groups["app"].replicas
        assert len(replicas) == 3
        assert [engine.thread_pool.capacity for engine in replicas] == [2, 2, 2]
        default_db = get_scenario("replicated_lb").topology.tier("db").workers
        assert deployment.topology.tier("db").workers == default_db
