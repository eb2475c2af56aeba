"""Every answer a finished CAG gives, pinned per scenario.

The analysis layer, the store, the exporters and the accuracy oracle
all read a finished CAG through a handful of queries: its length and
timestamps, its request ids and contexts, its primary path, its pattern
signature and latency breakdown, its JSON/DOT export and its edges.
This test records each answer for every finished CAG of two runs -- the
RUBiS identity trace (``tests/test_rubis_identity.py``'s ``tiny``
configuration) and ``fanout_aggregator`` -- and hashes them into one
digest per scenario (``tests/golden_cag_queries.json``).  The digest
pins the answers, not the representation: a change to how a finished
CAG holds its vertices must leave it byte-identical.

Every query reads the columns a finished CAG keeps at rest: the edges
are fingerprinted from ``edge_positions()`` and the digest's per-vertex
fingerprints, in edge order.  Regenerate with ``python -m
tests.regen_goldens cag_queries`` only for an intended output change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from helpers import TINY_STAGES, tiny_config
from repro.core.export import cag_to_dict, cag_to_dot
from repro.core.latency import breakdown_for_cag, segments_json
from repro.core.patterns import cag_signature
from repro.pipeline import BackendSpec, RunSource
from repro.pipeline.equivalence import _vertex_fingerprints
from repro.topology import ScenarioConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cag_queries.json"

#: The pinned runs by golden key.
SCENARIOS = {
    "rubis_identity": tiny_config(),
    "fanout_aggregator": ScenarioConfig("fanout_aggregator", stages=TINY_STAGES, seed=11),
}


def cag_answers(cag) -> tuple:
    """What every query of one finished CAG answers, in asking order."""
    export = cag_to_dict(cag)
    del export["cag_id"]  # assigned per process, not a property of the run
    return (
        len(cag),
        cag.begin_timestamp,
        cag.end_timestamp,
        cag.duration(),
        sorted(cag.request_ids()),
        cag.contexts(),
        cag.primary_positions(),
        cag_signature(cag),
        breakdown_for_cag(cag).as_dict(),
        json.dumps(export, sort_keys=True),
        cag_to_dot(cag),
        edge_fingerprints(cag),
    )


def edge_fingerprints(cag) -> list:
    """``(kind, parent fingerprint, child fingerprint)`` per edge, in the
    order the edges were added."""
    fingerprints = _vertex_fingerprints(cag)
    return [
        (kind, fingerprints[parent], fingerprints[child])
        for parent, child, kind in cag.edge_positions()
    ]


def scenario_digest(config) -> dict:
    """The finished CAG count and the digest of their answers."""
    cags = BackendSpec.batch().correlate(RunSource(config=config).activities()).cags
    digest = hashlib.sha256()
    for cag in cags:
        digest.update(repr(cag_answers(cag)).encode("utf-8"))
    return {"cags": len(cags), "digest": digest.hexdigest()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_finished_cag_queries_match_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
    assert scenario_digest(SCENARIOS[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_segments_text_is_the_sorted_json_of_the_breakdown(name):
    """The store's ``segments`` text, written in one pass from the shape's
    sorted labels and the CAG's sums, is what ``json.dumps`` writes for
    the breakdown, byte for byte, for every finished CAG."""
    cags = BackendSpec.batch().correlate(RunSource(config=SCENARIOS[name]).activities()).cags
    assert cags
    for cag in cags:
        expected = json.dumps(breakdown_for_cag(cag).as_dict(), sort_keys=True)
        assert segments_json(cag) == expected


def _regenerate_golden() -> None:
    digests = {}
    for name, config in sorted(SCENARIOS.items()):
        digests[name] = scenario_digest(config)
        print(f"{name:20s} cags={digests[name]['cags']} {digests[name]['digest'][:16]}...")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
