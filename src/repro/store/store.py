"""The on-disk trace store: SQLite-backed queryable request history.

Every other artefact the tracer writes (summary JSON, CAG JSONL, DOT,
BENCH files) describes *one* run.  :class:`TraceStore` is the layer that
accumulates **many** runs into one durable, indexed database so that
post-hoc questions -- "how did p99 of this pattern move over the last
week?", "did today's run regress against yesterday's?" -- are one query
instead of one re-simulation.

Schema (version :data:`SCHEMA_VERSION`)
---------------------------------------
``meta``
    Key/value pairs; carries ``schema_version``.  Opening a store whose
    version differs from this build's is refused with a clear error --
    silently misreading rows written by another schema would poison the
    CI drift gate.
``runs``
    One row per ingest run: user-visible ``run_id``, creation wall-clock
    time, scenario name, source/backend one-liners
    (:meth:`BackendSpec.describe`), sampling policy, rank-kernel
    provenance, ``git describe`` of the ingesting checkout, window, and
    final counters (requests, incomplete paths, correlation time).
``patterns``
    Causal-path patterns interned *across* runs: the full
    :func:`~repro.core.patterns.cag_signature` identity is carried as a
    SHA-256 hash plus a human label (component hops) -- two runs that
    observe the same request shape share one pattern row, which is what
    makes cross-run drift queries a join instead of a re-classification.
``requests``
    One row per finished request/CAG: owning run, pattern, begin/end
    timestamps, end-to-end duration, root context, and the per-category
    latency breakdown (segment label -> seconds, JSON).  Indexed by
    (run, pattern, begin time) -- the axes every query filters on.

Ingest is *incremental and idempotent*: each row carries a
data-derived ``root_key`` (root timestamp + root context + root
connection) under a UNIQUE constraint, so re-ingesting a request --
a batch pass after a streaming pass, or a resumed streaming run
re-emitting CAGs that finished between its last checkpoint and the
crash -- is a no-op instead of a duplicate.  That is the property that
makes streaming-chunked, batch and post-resume ingest produce
digest-identical stores (see :meth:`TraceStore.run_digest`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import subprocess
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.cag import CAG
from ..core.latency import breakdown_for_cag
from ..core.patterns import Signature, cag_signature

#: Version of the on-disk layout; bump on any incompatible change.
SCHEMA_VERSION = 1

_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE runs (
    run_key            INTEGER PRIMARY KEY,
    run_id             TEXT NOT NULL UNIQUE,
    created_at         REAL NOT NULL,
    scenario           TEXT,
    source             TEXT,
    backend            TEXT,
    sampling           TEXT,
    kernel             TEXT,
    kernel_requested   TEXT,
    kernel_reason      TEXT,
    git_describe       TEXT,
    window_s           REAL,
    requests           INTEGER NOT NULL DEFAULT 0,
    incomplete         INTEGER NOT NULL DEFAULT 0,
    correlation_time_s REAL,
    finalized          INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE patterns (
    pattern_key    INTEGER PRIMARY KEY,
    signature_hash TEXT NOT NULL UNIQUE,
    label          TEXT NOT NULL,
    length         INTEGER NOT NULL,
    components     TEXT NOT NULL
);
CREATE TABLE requests (
    request_key  INTEGER PRIMARY KEY,
    run_key      INTEGER NOT NULL REFERENCES runs(run_key),
    pattern_key  INTEGER NOT NULL REFERENCES patterns(pattern_key),
    root_key     TEXT NOT NULL,
    begin_ts     REAL NOT NULL,
    end_ts       REAL,
    duration_s   REAL,
    root_context TEXT NOT NULL,
    segments     TEXT NOT NULL,
    UNIQUE (run_key, root_key)
);
CREATE INDEX idx_requests_run_pattern_time ON requests (run_key, pattern_key, begin_ts);
CREATE INDEX idx_requests_run_time ON requests (run_key, begin_ts);
"""


def signature_hash(signature: Signature) -> str:
    """Stable cross-run identity of a pattern signature.

    The signature is a nested tuple of strings and ints whose ``repr``
    is deterministic on every supported Python (the same property the
    golden digests rely on), so its SHA-256 is a portable join key.
    """
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()


def signature_label(signature: Signature) -> str:
    """Human-readable component-hop label (not an identity -- the hash is).

    Consecutive same-program vertices are collapsed so a 24-activity
    chain reads ``httpd>java>mysqld>java>httpd`` instead of repeating
    every kernel event.
    """
    hops: List[str] = []
    for _type_name, _hostname, program in signature[0]:
        if not hops or hops[-1] != program:
            hops.append(program)
    return ">".join(hops)


def _signature_components(signature: Signature) -> List[str]:
    return list(
        dict.fromkeys(f"{hostname}/{program}" for _type_name, hostname, program in signature[0])
    )


def cag_root_key(cag: CAG) -> str:
    """Data-derived identity of a request, stable across backends.

    Built only from logged fields of the root activity (local timestamp,
    context 4-tuple, directional connection 4-tuple) -- never from
    process-local artefacts like ``Activity.seq`` or interned ints -- so
    the same request ingested by the batch, streaming or sharded driver,
    or re-ingested by a resumed run in a fresh interpreter, collapses
    onto one row.
    """
    root = cag.root
    return repr(
        (
            root.timestamp.hex(),
            root.context.as_tuple(),
            root.message.connection_key(),
        )
    )


@functools.cache
def git_describe() -> str:
    """``git describe`` of the ingesting checkout, or ``"unknown"``.

    Provenance only -- never load-bearing: a store written outside a git
    checkout (production log ingest) is just as valid.  Resolved once
    per process: every ``finalize_run`` would otherwise fork ``git``.
    """
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            # The checkout this code runs from, not whatever repository
            # the user happens to be standing in.
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def default_run_id(prefix: str = "run") -> str:
    """A readable, reasonably unique run id for callers that pin none."""
    return f"{prefix}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"


class TraceStore:
    """One SQLite trace store: open/create, ingest, query.

    Parameters
    ----------
    path:
        Database file.  Created (with schema) when missing unless
        ``create=False``, in which case a missing file raises
        :class:`ValueError` -- the query CLI must never silently create
        an empty store and then report "unknown run".
    """

    def __init__(self, path, create: bool = True) -> None:
        self.path = os.fspath(path)
        exists = os.path.exists(self.path)
        if not exists and not create:
            raise ValueError(f"store file not found: {self.path}")
        if not exists:
            parent = os.path.dirname(self.path) or "."
            if not os.path.isdir(parent):
                raise ValueError(f"store directory does not exist: {parent}")
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        # signature -> pattern_key for every pattern this connection has
        # looked up or inserted; pattern rows are never updated or
        # deleted, so an entry cannot go stale.
        self._pattern_keys: Dict[Signature, int] = {}
        if exists:
            self._check_schema()
        else:
            with self._conn:
                self._conn.executescript(_DDL)
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    @classmethod
    def open(cls, path) -> "TraceStore":
        """Open an *existing* store; missing files are an error."""
        return cls(path, create=False)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def commit(self) -> None:
        """Flush pending ingests to disk (the incremental commit point)."""
        self._conn.commit()

    def _check_schema(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise ValueError(f"not a trace store: {self.path} ({exc})") from exc
        if row is None:
            raise ValueError(f"not a trace store: {self.path} (no schema_version)")
        version = int(row["value"])
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"trace store {self.path} has schema version {version}, this "
                f"build supports version {SCHEMA_VERSION}; re-ingest the runs "
                "into a fresh store (or use a matching build) instead of "
                "mixing layouts"
            )

    # -- ingest --------------------------------------------------------------

    def begin_run(self, run_id: str, scenario: Optional[str] = None) -> int:
        """Create (or resume) the run row for ``run_id``; return its key.

        A run that was started but never finalized -- a crashed streaming
        ingest -- is *resumed*: its existing rows stay, and the
        idempotent request ingest fills in whatever the crash cut off.
        Re-using the id of a **finalized** run is refused: silently
        appending to yesterday's completed run would corrupt every drift
        query built on it.
        """
        row = self._conn.execute(
            "SELECT run_key, finalized FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is not None:
            if row["finalized"]:
                raise ValueError(
                    f"run id {run_id!r} already exists (finalized) in {self.path}; "
                    "pick a new run id"
                )
            return int(row["run_key"])
        cursor = self._conn.execute(
            "INSERT INTO runs (run_id, created_at, scenario) VALUES (?, ?, ?)",
            (run_id, time.time(), scenario),
        )
        return int(cursor.lastrowid)

    def _pattern_key(self, signature: Signature) -> int:
        key = self._pattern_keys.get(signature)
        if key is None:
            key = self._pattern_keys[signature] = self._intern_pattern(signature)
        return key

    def _intern_pattern(self, signature: Signature) -> int:
        """The pattern row for ``signature``, inserted if no run stored
        this request shape before."""
        digest = signature_hash(signature)
        row = self._conn.execute(
            "SELECT pattern_key FROM patterns WHERE signature_hash = ?", (digest,)
        ).fetchone()
        if row is not None:
            return int(row["pattern_key"])
        cursor = self._conn.execute(
            "INSERT INTO patterns (signature_hash, label, length, components) "
            "VALUES (?, ?, ?, ?)",
            (
                digest,
                signature_label(signature),
                len(signature[0]),
                json.dumps(_signature_components(signature)),
            ),
        )
        return int(cursor.lastrowid)

    def ingest_cag(self, run_key: int, cag: CAG) -> bool:
        """Insert one finished CAG; return False when it was already there.

        Unfinished CAGs carry no END (hence no duration) and are counted
        on the run row instead of stored as rows.
        """
        if not cag.finished:
            return False
        signature = cag_signature(cag)
        breakdown = breakdown_for_cag(cag)
        duration = cag.duration()
        begin_ts = cag.begin_timestamp
        end_ts = None if duration is None else begin_ts + duration
        root = cag.root
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO requests "
            "(run_key, pattern_key, root_key, begin_ts, end_ts, duration_s, "
            " root_context, segments) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_key,
                self._pattern_key(signature),
                cag_root_key(cag),
                begin_ts,
                end_ts,
                duration,
                json.dumps(list(root.context.as_tuple())),
                json.dumps(breakdown.as_dict(), sort_keys=True),
            ),
        )
        return cursor.rowcount > 0

    def ingest_cags(self, run_key: int, cags: Iterable[CAG]) -> int:
        """Ingest many CAGs; return how many rows were newly inserted."""
        return sum(1 for cag in cags if self.ingest_cag(run_key, cag))

    def finalize_run(
        self,
        run_key: int,
        *,
        scenario: Optional[str] = None,
        source: Optional[str] = None,
        backend: Optional[str] = None,
        sampling: Optional[str] = None,
        window_s: Optional[float] = None,
        incomplete: int = 0,
        correlation_time_s: Optional[float] = None,
        kernel_provenance: Optional[Dict[str, str]] = None,
    ) -> None:
        """Stamp run metadata and final counters; marks the run finalized."""
        if kernel_provenance is None:
            from ..core.kernel import kernel_provenance as current_kernel

            kernel_provenance = current_kernel()
        requests = self._conn.execute(
            "SELECT COUNT(*) AS n FROM requests WHERE run_key = ?", (run_key,)
        ).fetchone()["n"]
        self._conn.execute(
            "UPDATE runs SET scenario = COALESCE(?, scenario), source = ?, "
            "backend = ?, sampling = ?, kernel = ?, kernel_requested = ?, "
            "kernel_reason = ?, git_describe = ?, window_s = ?, requests = ?, "
            "incomplete = ?, correlation_time_s = ?, finalized = 1 "
            "WHERE run_key = ?",
            (
                scenario,
                source,
                backend,
                sampling,
                kernel_provenance.get("kernel"),
                kernel_provenance.get("kernel_requested"),
                kernel_provenance.get("kernel_reason"),
                git_describe(),
                window_s,
                requests,
                incomplete,
                correlation_time_s,
                run_key,
            ),
        )
        self._conn.commit()

    # -- run access ----------------------------------------------------------

    def runs(self) -> List[Dict[str, object]]:
        """Every run's metadata row, oldest first."""
        rows = self._conn.execute("SELECT * FROM runs ORDER BY run_key").fetchall()
        return [dict(row) for row in rows]

    def run_ids(self) -> List[str]:
        return [row["run_id"] for row in self.runs()]

    def resolve_run(self, run_id: str) -> int:
        """Map a user-visible run id to its key, or raise ValueError."""
        row = self._conn.execute(
            "SELECT run_key FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            known = ", ".join(self.run_ids()) or "(store is empty)"
            raise ValueError(f"unknown run id {run_id!r}; store has: {known}")
        return int(row["run_key"])

    def run_row(self, run_id: str) -> Dict[str, object]:
        key = self.resolve_run(run_id)
        row = self._conn.execute("SELECT * FROM runs WHERE run_key = ?", (key,)).fetchone()
        return dict(row)

    # -- request-level access ------------------------------------------------

    def _pattern_keys_matching(self, pattern: str) -> List[int]:
        """Pattern filter: exact label or signature-hash prefix (>= 6 chars)."""
        rows = self._conn.execute(
            "SELECT pattern_key FROM patterns WHERE label = ? "
            "OR (length(?) >= 6 AND signature_hash LIKE ? || '%')",
            (pattern, pattern, pattern),
        ).fetchall()
        if not rows:
            raise ValueError(
                f"no pattern matches {pattern!r} (give a label or a "
                "signature-hash prefix of at least 6 characters; see "
                "`repro query patterns`)"
            )
        return [int(row["pattern_key"]) for row in rows]

    def request_rows(
        self,
        run_id: Optional[str] = None,
        pattern: Optional[str] = None,
        scenario: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[sqlite3.Row]:
        """Request rows matching the filters, ordered by begin time.

        ``since``/``until`` select on the request *begin* timestamp
        (trace-local seconds), the time axis the store indexes.
        """
        clauses: List[str] = []
        params: List[object] = []
        if run_id is not None:
            clauses.append("requests.run_key = ?")
            params.append(self.resolve_run(run_id))
        if scenario is not None:
            clauses.append("runs.scenario = ?")
            params.append(scenario)
        if pattern is not None:
            keys = self._pattern_keys_matching(pattern)
            clauses.append(
                f"requests.pattern_key IN ({', '.join('?' * len(keys))})"
            )
            params.extend(keys)
        if since is not None:
            clauses.append("requests.begin_ts >= ?")
            params.append(since)
        if until is not None:
            clauses.append("requests.begin_ts < ?")
            params.append(until)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        query = (
            "SELECT requests.*, runs.run_id AS run_id, runs.scenario AS scenario, "
            "patterns.signature_hash AS signature_hash, patterns.label AS label "
            "FROM requests "
            "JOIN runs ON runs.run_key = requests.run_key "
            "JOIN patterns ON patterns.pattern_key = requests.pattern_key "
            f"{where} ORDER BY requests.begin_ts, requests.root_key"
        )
        return self._conn.execute(query, params).fetchall()

    def durations(self, **filters) -> List[Tuple[float, float]]:
        """(begin_ts, duration_s) pairs for the matching requests."""
        return [
            (row["begin_ts"], row["duration_s"])
            for row in self.request_rows(**filters)
            if row["duration_s"] is not None
        ]

    # -- canonical digest ----------------------------------------------------

    def run_digest(self, run_id: str) -> str:
        """SHA-256 over the run's canonical request rows.

        Canonical = sorted by (root_key), each row reduced to its logged
        data (pattern hash, begin/end/duration, segments).  Insertion
        order, autoincrement keys and run metadata (wall-clock times,
        git state) are all excluded, so two ingests of the same trace --
        batch vs. streaming-chunked vs. crashed-and-resumed -- produce
        the same digest exactly when they stored the same requests.
        """
        key = self.resolve_run(run_id)
        rows = self._conn.execute(
            "SELECT requests.root_key, patterns.signature_hash, requests.begin_ts, "
            "requests.end_ts, requests.duration_s, requests.segments "
            "FROM requests JOIN patterns "
            "ON patterns.pattern_key = requests.pattern_key "
            "WHERE requests.run_key = ? ORDER BY requests.root_key",
            (key,),
        ).fetchall()
        payload = [
            (
                row["root_key"],
                row["signature_hash"],
                repr(row["begin_ts"]),
                repr(row["end_ts"]),
                repr(row["duration_s"]),
                row["segments"],
            )
            for row in rows
        ]
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def record_trace(
    store,
    trace,
    *,
    run_id: Optional[str] = None,
    scenario: Optional[str] = None,
    source: Optional[str] = None,
    backend=None,
) -> str:
    """One-shot ingest of a completed trace; returns the run id used.

    ``store`` is a path or an open :class:`TraceStore`; ``backend`` may
    be a :class:`~repro.pipeline.BackendSpec` (its ``describe()`` string
    and knobs land in the run metadata).
    """
    own = not isinstance(store, TraceStore)
    target = TraceStore(store) if own else store
    try:
        used_run_id = run_id or default_run_id()
        run_key = target.begin_run(used_run_id, scenario=scenario)
        target.ingest_cags(run_key, trace.cags)
        sampling = getattr(backend, "sampling", None)
        target.finalize_run(
            run_key,
            scenario=scenario,
            source=source,
            backend=backend.describe() if backend is not None else None,
            sampling=sampling.describe() if sampling is not None else None,
            window_s=trace.correlation.window,
            incomplete=len(trace.incomplete_cags),
            correlation_time_s=trace.correlation_time,
        )
        return used_run_id
    finally:
        if own:
            target.close()
