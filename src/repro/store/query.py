"""Read-side of the trace store: percentiles, pattern mix, mix drift.

Everything here is a pure function over :class:`~repro.store.store.
TraceStore` rows, returning JSON-friendly dictionaries -- the `repro
query` CLI renders them for humans, and ``--json`` prints them as-is.

Percentiles use the **nearest-rank** definition (the smallest stored
value with at least ``q`` percent of the sample at or below it).  Unlike
interpolating definitions it always returns a latency that actually
occurred, and -- because it never mixes two samples arithmetically --
identical request sets produce bit-identical percentiles regardless of
which backend or ingest path wrote them, which is what lets tests pin
store-side percentiles against the in-memory report exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .store import TraceStore

#: Percentiles the latency query and run summaries report.
PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q:g}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def summarize_durations(durations: Sequence[float]) -> Dict[str, float]:
    """count/mean/max plus the :data:`PERCENTILES` of a duration sample."""
    stats: Dict[str, float] = {"count": len(durations)}
    if not durations:
        return stats
    stats["mean_s"] = sum(durations) / len(durations)
    stats["max_s"] = max(durations)
    for q in PERCENTILES:
        stats[f"p{q:g}_s"] = percentile(durations, q)
    return stats


def latency_over_windows(
    store: TraceStore,
    run_id: Optional[str] = None,
    pattern: Optional[str] = None,
    scenario: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    bucket_s: Optional[float] = None,
) -> List[Dict[str, float]]:
    """Latency percentiles, optionally grouped into time buckets.

    Without ``bucket_s`` the whole selection is one row.  With it, the
    request *begin* timestamps are floored onto an absolute
    ``bucket_s``-wide grid, one row per non-empty bucket -- absolute
    (``floor(ts / bucket)``), not relative to the first request, so the
    same request always lands in the same bucket no matter what filter
    selected it.
    """
    if bucket_s is not None and bucket_s <= 0:
        raise ValueError(f"bucket must be positive, got {bucket_s:g}")
    pairs = store.durations(
        run_id=run_id, pattern=pattern, scenario=scenario, since=since, until=until
    )
    if bucket_s is None:
        row = summarize_durations([duration for _begin, duration in pairs])
        row["begin_s"] = min((begin for begin, _d in pairs), default=0.0)
        return [row]
    buckets: Dict[int, List[float]] = {}
    for begin, duration in pairs:
        buckets.setdefault(int(begin // bucket_s), []).append(duration)
    rows = []
    for index in sorted(buckets):
        row = summarize_durations(buckets[index])
        row["begin_s"] = index * bucket_s
        rows.append(row)
    return rows


def pattern_mix(store: TraceStore, run_id: str) -> List[Dict[str, object]]:
    """The run's pattern mix: count and share per pattern, ranked.

    Rank order matches the in-memory ranked report
    (:meth:`PatternClassifier.patterns`): most paths first, then fewest
    activities, then the signature identity (here: its hash) -- so row 1
    is the same dominant pattern the paper's report would lead with.
    """
    rows = store.request_rows(run_id=run_id)
    counts: Dict[str, Dict[str, object]] = {}
    for row in rows:
        entry = counts.setdefault(
            row["signature_hash"],
            {
                "pattern": row["signature_hash"],
                "label": row["label"],
                "count": 0,
                "durations": [],
            },
        )
        entry["count"] += 1
        if row["duration_s"] is not None:
            entry["durations"].append(row["duration_s"])
    lengths = _pattern_lengths(store, counts)
    total = sum(entry["count"] for entry in counts.values())
    mix = []
    for entry in sorted(
        counts.values(),
        key=lambda e: (-e["count"], lengths[e["pattern"]], e["pattern"]),
    ):
        durations = entry.pop("durations")
        entry["length"] = lengths[entry["pattern"]]
        entry["share"] = entry["count"] / total if total else 0.0
        stats = summarize_durations(durations)
        stats.pop("count", None)  # entry["count"] counts rows, not durations
        entry.update(stats)
        mix.append(entry)
    return mix


def _pattern_lengths(store: TraceStore, counts) -> Dict[str, int]:
    rows = store._conn.execute(
        "SELECT signature_hash, length FROM patterns"
    ).fetchall()
    return {
        row["signature_hash"]: int(row["length"])
        for row in rows
        if row["signature_hash"] in counts
    }


def mix_drift(
    store: TraceStore, base_run: str, current_run: str
) -> List[Dict[str, object]]:
    """Pattern-mix drift between two runs: share deltas, new/vanished.

    One row per pattern seen in either run, ordered by absolute share
    delta (largest movement first).  ``base_share``/``current_share``
    are fractions of each run's own request total, so runs of different
    sizes compare meaningfully.
    """
    base = {entry["pattern"]: entry for entry in pattern_mix(store, base_run)}
    current = {entry["pattern"]: entry for entry in pattern_mix(store, current_run)}
    rows = []
    for digest in sorted(set(base) | set(current)):
        before = base.get(digest)
        after = current.get(digest)
        entry = before or after
        rows.append(
            {
                "pattern": digest,
                "label": entry["label"],
                "base_count": before["count"] if before else 0,
                "current_count": after["count"] if after else 0,
                "base_share": before["share"] if before else 0.0,
                "current_share": after["share"] if after else 0.0,
                "share_delta": (after["share"] if after else 0.0)
                - (before["share"] if before else 0.0),
                "status": "common"
                if before and after
                else ("new" if after else "vanished"),
            }
        )
    rows.sort(key=lambda row: (-abs(row["share_delta"]), row["pattern"]))
    return rows


#: Format marker of exported run summaries (bump with SCHEMA_VERSION).
RUN_SUMMARY_FORMAT = "repro-trace-store-run/1"


def run_summary(store: TraceStore, run_id: str) -> Dict[str, object]:
    """Self-contained, diffable description of one run.

    This is the document ``repro query export`` writes and ``repro query
    diff`` consumes: run metadata for provenance, plus the ranked
    per-pattern rows (count, share, percentiles) the regression diff
    compares.  Committing one of these as a golden file gives CI a
    drift gate that needs no store -- only today's run.
    """
    row = store.run_row(run_id)
    return {
        "format": RUN_SUMMARY_FORMAT,
        "run_id": row["run_id"],
        "created_at": row["created_at"],
        "scenario": row["scenario"],
        "source": row["source"],
        "backend": row["backend"],
        "sampling": row["sampling"],
        "kernel": row["kernel"],
        "git_describe": row["git_describe"],
        "window_s": row["window_s"],
        "requests": row["requests"],
        "incomplete": row["incomplete"],
        "correlation_time_s": row["correlation_time_s"],
        "patterns": pattern_mix(store, run_id),
    }
