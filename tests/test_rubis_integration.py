"""Integration tests: the simulated RUBiS deployment end to end."""

import pytest

from helpers import tiny_config
from repro.core.activity import ActivityType
from repro.services.faults import FaultConfig
from repro.services.noise import NoiseConfig
from repro.topology import run_scenario
from repro.topology.library import RUBIS_WEB_IP as WEB_IP


class TestRunMechanics:
    def test_every_issued_request_completes(self, tiny_run):
        assert tiny_run.requests_issued > 10
        assert tiny_run.completed_requests == tiny_run.requests_issued
        assert tiny_run.requests_served_frontend == tiny_run.requests_issued

    def test_ground_truth_matches_completed_requests(self, tiny_run):
        assert len(tiny_run.ground_truth) == tiny_run.completed_requests
        for truth in tiny_run.ground_truth.values():
            assert truth.end_time > truth.start_time
            programs = {program for _h, program, _p, _t in truth.contexts}
            assert programs == {"httpd", "java", "mysqld"}

    def test_activities_logged_on_all_three_service_nodes(self, tiny_run):
        assert set(tiny_run.records_by_node) == {"www", "app", "db"}
        assert all(records for records in tiny_run.records_by_node.values())

    def test_determinism_same_seed_same_trace(self):
        first = run_scenario(tiny_config(clients=10))
        second = run_scenario(tiny_config(clients=10))
        assert first.completed_requests == second.completed_requests
        assert first.total_activities == second.total_activities
        assert first.throughput == pytest.approx(second.throughput)

    def test_different_seed_changes_the_workload(self):
        first = run_scenario(tiny_config(clients=10))
        second = run_scenario(tiny_config(clients=10, seed=99))
        assert first.total_activities != second.total_activities

    def test_tracing_disabled_produces_no_records(self):
        result = run_scenario(tiny_config(clients=10, tracing_enabled=False))
        assert result.total_activities == 0
        assert result.completed_requests > 0

    def test_cpu_utilisation_reported_and_sane(self, tiny_run):
        assert set(tiny_run.cpu_utilisation) == {"www", "app", "db"}
        assert all(0.0 <= value <= 1.0 for value in tiny_run.cpu_utilisation.values())

    def test_metrics_throughput_and_response_time(self, tiny_run):
        assert tiny_run.throughput > 0
        assert 0.05 < tiny_run.mean_response_time < 5.0
        assert tiny_run.metrics.response_time_percentile(
            95
        ) >= tiny_run.metrics.response_time_percentile(50)


class TestTracingTheDeployment:
    def test_tracer_reconstructs_every_request(self, tiny_run, tiny_trace):
        assert tiny_trace.request_count == tiny_run.completed_requests
        assert not tiny_trace.incomplete_cags

    def test_path_accuracy_is_100_percent(self, tiny_run, tiny_trace):
        report = tiny_trace.accuracy(tiny_run.ground_truth)
        assert report.accuracy == 1.0
        assert report.false_positives == 0
        assert report.false_negatives == 0

    def test_begin_end_classified_only_at_the_frontend(self, tiny_run):
        activities = tiny_run.activities()
        begins = [a for a in activities if a.type is ActivityType.BEGIN]
        ends = [a for a in activities if a.type is ActivityType.END]
        assert begins and ends
        assert all(a.context.program == "httpd" for a in begins + ends)
        assert all(a.message.dst_ip == WEB_IP for a in begins)

    def test_cag_structure_is_valid_and_three_tier(self, tiny_trace):
        for cag in tiny_trace.cags[:50]:
            cag.validate()
            programs = {program for _h, program in cag.components()}
            assert programs == {"httpd", "java", "mysqld"}

    def test_window_choice_does_not_change_results(self, tiny_run):
        small = tiny_run.trace(window=0.001)
        large = tiny_run.trace(window=5.0)
        assert small.request_count == large.request_count
        assert small.accuracy(tiny_run.ground_truth).accuracy == 1.0
        assert large.accuracy(tiny_run.ground_truth).accuracy == 1.0

    def test_accuracy_robust_to_large_clock_skew(self):
        run = run_scenario(tiny_config(clients=20, clock_skew=0.5))
        trace = run.trace(window=0.010)
        assert trace.accuracy(run.ground_truth).accuracy == 1.0

    def test_accuracy_under_load_with_thread_reuse(self, loaded_run):
        trace = loaded_run.trace(window=0.010)
        report = trace.accuracy(loaded_run.ground_truth)
        assert report.accuracy == 1.0
        # the loaded run must actually exercise thread reuse
        assert trace.correlation.engine_stats.thread_reuse_blocked >= 0

    def test_dominant_pattern_looks_like_view_item(self, tiny_trace):
        pattern = tiny_trace.dominant_pattern()
        assert pattern is not None
        programs = {program for _h, program in pattern.components()}
        assert programs == {"httpd", "java", "mysqld"}


class TestNoiseAndFaults:
    def test_noise_does_not_hurt_accuracy(self):
        run = run_scenario(tiny_config(clients=15, noise=NoiseConfig.paper_noise(scale=0.3)))
        assert run.noise_activities > 0
        trace = run.trace(window=0.002)
        assert trace.accuracy(run.ground_truth).accuracy == 1.0

    def test_noise_activities_are_discarded_not_correlated(self):
        run = run_scenario(tiny_config(clients=15, noise=NoiseConfig.paper_noise(scale=0.3)))
        trace = run.trace(window=0.002)
        stats = trace.correlation.ranker_stats
        assert stats.noise_discarded > 0
        assert trace.request_count == run.completed_requests

    def test_ssh_noise_filtered_by_program_name(self):
        run = run_scenario(tiny_config(clients=10, noise=NoiseConfig(ssh_rate=5.0)))
        trace = run.trace(window=0.010)
        assert trace.filtered_records > 0
        assert trace.accuracy(run.ground_truth).accuracy == 1.0

    def test_ejb_delay_fault_shifts_latency_to_java2java(self, tiny_trace):
        faulty_run = run_scenario(tiny_config(clients=30, faults=FaultConfig.ejb_delay_case()))
        faulty = faulty_run.trace(window=0.010).profile("faulty")
        normal = tiny_trace.profile("normal")
        assert faulty.percentages.get("java2java", 0) > normal.percentages.get("java2java", 0) + 20

    def test_database_lock_fault_shifts_latency_to_mysqld(self, tiny_trace):
        faulty_run = run_scenario(tiny_config(clients=30, faults=FaultConfig.database_lock_case()))
        faulty = faulty_run.trace(window=0.010).profile("faulty")
        normal = tiny_trace.profile("normal")
        assert (
            faulty.percentages.get("mysqld2mysqld", 0)
            > normal.percentages.get("mysqld2mysqld", 0) + 10
        )

    def test_ejb_network_fault_inflates_interactions_with_java(self, tiny_run, tiny_trace):
        faulty_run = run_scenario(tiny_config(clients=30, faults=FaultConfig.ejb_network_case()))
        faulty_trace = faulty_run.trace(window=0.010)
        assert faulty_trace.accuracy(faulty_run.ground_truth).accuracy == 1.0
        faulty = faulty_trace.profile("faulty").percentages
        normal = tiny_trace.profile("normal").percentages
        grew = [
            label
            for label in ("httpd2java", "java2httpd", "mysqld2java", "java2mysqld")
            if faulty.get(label, 0) > normal.get(label, 0)
        ]
        assert len(grew) >= 2
        # the response time degrades even though the app's own compute does not
        assert faulty_run.mean_response_time > tiny_run.mean_response_time

    def test_fault_config_describe(self):
        assert FaultConfig.none().describe() == "none"
        assert "EJB_Delay" in FaultConfig.ejb_delay_case().describe()
        assert "Database_Lock" in FaultConfig.database_lock_case().describe()
        assert "EJB_Network" in FaultConfig.ejb_network_case().describe()


def loaded_pool(max_threads):
    """150 busy clients against an app tier of ``max_threads`` threads."""
    return tiny_config(clients=150, think_time=1.0, workers=(("app", max_threads),))


class TestMaxThreadsBehaviour:
    def test_small_pool_saturates_under_load(self):
        congested = run_scenario(loaded_pool(8))
        roomy = run_scenario(loaded_pool(200))
        assert roomy.throughput > congested.throughput
        assert roomy.mean_response_time < congested.mean_response_time

    def test_thread_pool_wait_shows_up_as_httpd2java(self):
        congested = run_scenario(loaded_pool(8))
        profile = congested.trace(window=0.010).profile("congested")
        assert profile.percentages.get("httpd2java", 0) > 20
