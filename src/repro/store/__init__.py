"""Persistent trace store: SQLite-backed, queryable request history.

Write side (:mod:`~repro.store.store`): :class:`TraceStore` ingests
finished CAGs -- incrementally and idempotently -- into an on-disk
database, one row per request, with interned cross-run pattern identities
and per-run provenance metadata.  Read side (:mod:`~repro.store.query`):
latency percentiles over time windows, pattern mix per run, mix drift
between runs.  Gate (:mod:`~repro.store.diff`): regression diff of two
runs' ranked reports with a tolerance threshold -- the document behind
``repro query diff`` and the CI drift gate.
"""

from .diff import PatternDelta, RunDiff, diff_summaries, load_run_summary
from .query import (
    PERCENTILES,
    RUN_SUMMARY_FORMAT,
    latency_over_windows,
    mix_drift,
    pattern_mix,
    percentile,
    run_summary,
    summarize_durations,
)
from .store import (
    SCHEMA_VERSION,
    TraceStore,
    cag_root_key,
    default_run_id,
    git_describe,
    signature_hash,
    signature_label,
)

__all__ = [
    "PERCENTILES",
    "RUN_SUMMARY_FORMAT",
    "SCHEMA_VERSION",
    "PatternDelta",
    "RunDiff",
    "TraceStore",
    "cag_root_key",
    "default_run_id",
    "diff_summaries",
    "git_describe",
    "latency_over_windows",
    "load_run_summary",
    "mix_drift",
    "pattern_mix",
    "percentile",
    "run_summary",
    "signature_hash",
    "signature_label",
    "summarize_durations",
]
