"""Byte-identity of the spec-interpreted RUBiS deployment.

The topology refactor replaced the hand-written httpd/appserver/database
tiers with the generic tier engine interpreting the ``rubis`` spec of the
scenario library.  These tests pin the refactor's central guarantee: the
interpreted spec produces *byte-identical* runs -- the same TCP_TRACE
lines in the same order, the same ground truth, the same client metrics
-- for the seed configurations captured before the refactor
(``tests/golden_rubis_digests.json``).  Identical records imply identical
traces and figures, so this is also a determinism pin for future
refactors (any change to RNG stream names, draw order, tier construction
order or event scheduling shows up here first).  The runs are plain
``ScenarioConfig("rubis", ...)`` configs: pool sizes and the request mix
are config fields, so no RUBiS-specific harness stands between the
golden file and the spec.
"""

import hashlib
import json
from pathlib import Path

from helpers import tiny_config
from repro.core.log_format import format_record
from repro.services.faults import FaultConfig
from repro.services.noise import NoiseConfig
from repro.topology import run_scenario
from repro.topology.requests import DEFAULT_MIX

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_rubis_digests.json").read_text("utf-8")
)

#: The pinned configurations by golden key (``python -m
#: tests.regen_goldens rubis`` regenerates the file from these).
GOLDEN_CONFIGS = {
    "tiny": tiny_config(),
    "tiny_default_mix": tiny_config(mix=DEFAULT_MIX, clients=20),
    "tiny_noise": tiny_config(clients=20, noise=NoiseConfig.paper_noise(scale=0.3)),
    "tiny_fault": tiny_config(
        clients=20, faults=FaultConfig.ejb_delay_case(), mix=DEFAULT_MIX
    ),
    "tiny_untraced": tiny_config(clients=10, tracing_enabled=False),
    "loaded": tiny_config(clients=120, think_time=2.0),
}


def run_digest(run) -> dict:
    """The digest format of the committed golden file."""
    records_hash = hashlib.sha256()
    for node, records in run.records_by_node.items():
        records_hash.update(node.encode())
        for record in records:
            records_hash.update(format_record(record).encode())
            records_hash.update(b"\n")
    truth_hash = hashlib.sha256()
    for request_id in sorted(run.ground_truth):
        record = run.ground_truth[request_id]
        truth_hash.update(
            f"{request_id}|{record.start_time!r}|{record.end_time!r}|"
            f"{sorted(record.contexts)!r}|{record.request_type}".encode()
        )
    return {
        "records": records_hash.hexdigest(),
        "ground_truth": truth_hash.hexdigest(),
        "total_activities": run.total_activities,
        "completed": run.completed_requests,
        "issued": run.requests_issued,
        "served_frontend": run.requests_served_frontend,
        "duration": repr(run.simulated_duration),
        "throughput": repr(run.throughput),
        "mrt": repr(run.mean_response_time),
        "cpu": {key: repr(value) for key, value in run.cpu_utilisation.items()},
        "noise_activities": run.noise_activities,
        "node_order": list(run.records_by_node.keys()),
    }


def assert_matches_golden(run, key: str) -> None:
    digest = run_digest(run)
    expected = GOLDEN[key]
    for field in expected:
        assert digest[field] == expected[field], (
            f"{key}.{field} diverged from the pre-refactor golden run"
        )


class TestByteIdentity:
    def test_tiny_run(self, tiny_run):
        assert_matches_golden(tiny_run, "tiny")

    def test_loaded_run(self, loaded_run):
        assert_matches_golden(loaded_run, "loaded")

    def test_default_mix(self):
        run = run_scenario(GOLDEN_CONFIGS["tiny_default_mix"])
        assert_matches_golden(run, "tiny_default_mix")

    def test_with_noise(self):
        run = run_scenario(GOLDEN_CONFIGS["tiny_noise"])
        assert_matches_golden(run, "tiny_noise")

    def test_with_ejb_delay_fault(self):
        run = run_scenario(GOLDEN_CONFIGS["tiny_fault"])
        assert_matches_golden(run, "tiny_fault")

    def test_tracing_disabled(self):
        run = run_scenario(GOLDEN_CONFIGS["tiny_untraced"])
        assert_matches_golden(run, "tiny_untraced")

    def test_fixtures_are_the_pinned_configs(self, tiny_run, loaded_run):
        assert tiny_run.config == GOLDEN_CONFIGS["tiny"]
        assert loaded_run.config == GOLDEN_CONFIGS["loaded"]


class TestEngineNeutrality:
    def test_rubis_never_triggers_the_splice_path(self, tiny_trace):
        """Sequential tiers block until a reply completes, so the
        late-completion splice (added for concurrent fan-out gathers)
        must never fire on the RUBiS workload -- its batch output is
        exactly the pre-splice engine's."""
        assert tiny_trace.correlation.engine_stats.spliced_receives == 0
