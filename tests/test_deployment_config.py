"""Tests for the deployment configuration and run-result plumbing."""

import pytest

from helpers import tiny_config
from repro.core.log_format import format_record, parse_record
from repro.topology import ScenarioConfig
from repro.topology.library import (
    RUBIS_APP_IP as APP_IP,
    RUBIS_DB_IP as DB_IP,
    RUBIS_WEB_IP as WEB_IP,
    get_scenario,
)
from repro.topology.requests import BROWSE_ONLY_MIX


class TestRubisScenarioConfig:
    def test_defaults_match_the_paper_setup(self):
        config = ScenarioConfig()
        scenario = get_scenario(config.scenario)
        assert config.scenario == "rubis"
        assert scenario.topology.tier("app").workers == 40  # the misconfigured default
        assert scenario.mix is BROWSE_ONLY_MIX
        assert config.workers == () and config.mix is None  # the scenario's own
        assert config.tracing_enabled is True
        assert config.cpus_per_node == 2       # 2-way SMP nodes

    def test_with_overrides_returns_a_copy(self):
        base = ScenarioConfig()
        changed = base.with_overrides(clients=777, workers=(("app", 250),))
        assert changed.clients == 777
        assert changed.workers == (("app", 250),)
        assert base.clients != 777
        assert base.workers == ()

    def test_unknown_override_is_rejected(self):
        with pytest.raises(TypeError):
            ScenarioConfig().with_overrides(not_a_field=1)


class TestDeploymentWiring:
    def test_deployment_builds_three_traced_service_nodes(self):
        deployment = tiny_config(clients=5).deployment()
        nodes = deployment.service_nodes
        assert all(node.traced for node in nodes.values())
        assert all(not node.traced for node in deployment.client_nodes)
        ips = {name: node.ip for name, node in nodes.items()}
        assert ips == {"www": WEB_IP, "app": APP_IP, "db": DB_IP}

    def test_tracing_disabled_means_no_probes(self):
        deployment = tiny_config(clients=5, tracing_enabled=False).deployment()
        assert deployment.service_nodes["www"].probe is None
        assert not deployment.collector.probes

    def test_app_thread_pool_size_follows_max_threads(self):
        deployment = tiny_config(clients=5, workers=(("app", 7),)).deployment()
        appserver = deployment.tier_groups["app"].primary
        assert appserver.thread_pool.capacity == 7
        assert len(appserver._idle_threads) == 7
        # the other tiers keep the scenario's pool sizes
        assert deployment.topology.tier("www").workers == 256


class TestRunResultHelpers:
    def test_frontend_spec_describes_the_web_tier(self, tiny_run):
        spec = tiny_run.frontend_spec()
        assert spec.ip == WEB_IP
        assert spec.port == 80
        assert APP_IP in spec.internal_ips

    def test_make_tracer_filters_interactive_noise_programs(self, tiny_run):
        tracer = tiny_run.make_tracer(window=0.02)
        assert tracer.window == 0.02
        assert "sshd" in tracer.ignore_programs
        assert "rlogind" in tracer.ignore_programs

    def test_all_records_flattens_per_node_logs(self, tiny_run):
        assert len(tiny_run.all_records()) == tiny_run.total_activities

    def test_records_survive_a_text_round_trip(self, tiny_run):
        for record in tiny_run.all_records()[:200]:
            parsed = parse_record(format_record(record))
            assert parsed.timestamp == pytest.approx(record.timestamp, abs=1e-6)
            assert parsed.context() == record.context()
            assert parsed.message() == record.message()
            assert parsed.direction == record.direction
            assert parsed.request_id == record.request_id

    def test_activities_classification_covers_all_records(self, tiny_run):
        activities = tiny_run.activities()
        # nothing is filtered in a noise-free run
        assert len(activities) == tiny_run.total_activities

    def test_ground_truth_request_types_match_the_catalog(self, tiny_run):
        from repro.topology.requests import CATALOG

        for truth in tiny_run.ground_truth.values():
            assert truth.request_type in CATALOG
