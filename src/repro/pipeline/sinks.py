"""Pipeline sinks: where trace artefacts are written.

A *sink* persists something about a completed pipeline run -- the
terminal/offline equivalents of the paper's figures.  Sinks are small
named objects with ``write(session) -> List[Path]``; the pipeline runs
each sink after the analysis stages and records the written paths on the
session (``session.artifacts``).

=======================  ==================================================
:class:`SummaryJsonSink` one ``trace_summary`` JSON document for the whole
                         trace (patterns, percentages, correlator stats)
:class:`CagJsonlSink`    the CAG stream as JSON Lines -- one
                         :func:`~repro.core.export.cag_to_dict` object per
                         line, the shape downstream dashboards ingest
:class:`DotSink`         Graphviz DOT files for the first N causal paths
                         (the paper's Fig. 1 view)
:class:`StoreSink`       one run appended to a persistent SQLite
                         :class:`~repro.store.TraceStore` -- the queryable
                         cross-run history behind ``repro query``
=======================  ==================================================

:class:`StoreSink` is also a *live* sink: it exposes ``on_cag`` and the
pipeline feeds it every finished CAG as correlation produces it, so a
streaming run -- and a batch run, whose drain hands CAGs out a slice at
a time -- commits request rows incrementally instead of holding the
whole trace until the end.  The final ``write()`` pass (which also
stamps run metadata) sweeps only what ``on_cag`` did not see -- every
CAG when the sink runs without the hook, the CAGs a resumed run revived
from its checkpoint -- and ingest is idempotent, so a swept CAG that an
earlier, crashed ingest already stored is a no-op.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Set, Union

from ..core.cag import CAGError
from ..core.export import cag_to_dict, cag_to_dot, trace_summary
from ..store import TraceStore, default_run_id


class Sink:
    """Base class (optional -- duck typing suffices) for pipeline sinks."""

    name: str = "sink"

    def write(self, session) -> List[Path]:  # pragma: no cover - interface
        raise NotImplementedError


class SummaryJsonSink(Sink):
    """Write the compact :func:`~repro.core.export.trace_summary` JSON."""

    name = "summary_json"

    def __init__(self, path: Union[str, os.PathLike], top_patterns: int = 5) -> None:
        self.path = Path(path)
        self.top_patterns = top_patterns

    def write(self, session) -> List[Path]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        summary = trace_summary(session.trace, top_patterns=self.top_patterns)
        summary["backend"] = session.backend.describe()
        summary["source"] = session.source.describe()
        self.path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return [self.path]


class CagJsonlSink(Sink):
    """Stream every completed CAG as one JSON object per line."""

    name = "cag_jsonl"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        include_incomplete: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.include_incomplete = include_incomplete
        self.limit = limit

    def write(self, session) -> List[Path]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        cags = list(session.trace.cags)
        if self.include_incomplete:
            cags.extend(session.trace.incomplete_cags)
        if self.limit is not None:
            cags = cags[: self.limit]
        with self.path.open("w", encoding="utf-8") as handle:
            for cag in cags:
                handle.write(json.dumps(cag_to_dict(cag), sort_keys=True))
                handle.write("\n")
        return [self.path]


class StoreSink(Sink):
    """Append the run to a persistent :class:`~repro.store.TraceStore`.

    Parameters
    ----------
    path:
        Store database file; created with the current schema if missing.
        A missing directory is refused here, before anything runs.
    run_id:
        User-visible id the run is stored under; defaults to a
        timestamp/pid id from :func:`~repro.store.default_run_id`.
        Re-using a finalized run's id is refused at ingest time.
    scenario:
        Scenario name recorded on the run row (used by cross-run
        scenario filters); ``None`` for non-library sources.
    commit_every:
        How many live-ingested CAGs to batch per SQLite commit.
    """

    name = "store"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        run_id: Optional[str] = None,
        scenario: Optional[str] = None,
        commit_every: int = 256,
    ) -> None:
        if commit_every <= 0:
            raise ValueError("commit_every must be positive")
        self.path = Path(path)
        if not self.path.parent.is_dir():
            raise ValueError(f"store directory does not exist: {self.path.parent}")
        self.run_id = run_id or default_run_id()
        self.scenario = scenario
        self.commit_every = commit_every
        self._store: Optional[TraceStore] = None
        self._run_key: Optional[int] = None
        self._pending = 0
        # The CAG objects on_cag was offered (the trace keeps them alive
        # anyway), so write() can sweep exactly the rest.
        self._offered: Set[object] = set()
        self._deformed = 0

    def _ensure_open(self) -> TraceStore:
        if self._store is None:
            self._store = TraceStore(self.path)
            self._run_key = self._store.begin_run(self.run_id, scenario=self.scenario)
        return self._store

    def on_cag(self, cag) -> None:
        """Live ingest hook: store one finished CAG as it is produced.

        A CAG that is not a DAG has no signature to store it under: it
        is counted (and lands in the run row's ``incomplete``) instead of
        aborting the run.
        """
        store = self._ensure_open()
        self._offered.add(cag)
        try:
            inserted = store.ingest_cag(self._run_key, cag)
        except CAGError:
            self._deformed += 1
            return
        if inserted:
            self._pending += 1
            if self._pending >= self.commit_every:
                store.commit()
                self._pending = 0

    def write(self, session) -> List[Path]:
        store = self._ensure_open()
        # Sweep what the live hook never saw: everything when the sink
        # was driven without it, the CAGs a resumed run revived from its
        # checkpoint otherwise.
        for cag in session.trace.cags:
            if cag not in self._offered:
                self.on_cag(cag)
        sampling = session.backend.sampling
        store.finalize_run(
            self._run_key,
            scenario=self.scenario,
            source=session.source.describe(),
            backend=session.backend.describe(),
            sampling=sampling.describe() if sampling is not None else None,
            window_s=session.trace.correlation.window,
            incomplete=len(session.trace.incomplete_cags) + self._deformed,
            correlation_time_s=session.trace.correlation_time,
        )
        store.close()
        self._store = None
        self._run_key = None
        self._pending = 0
        self._offered = set()
        self._deformed = 0
        return [self.path]


class DotSink(Sink):
    """Write Graphviz DOT files for the first ``limit`` causal paths."""

    name = "dot"

    def __init__(self, directory: Union[str, os.PathLike], limit: int = 5) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.directory = Path(directory)
        self.limit = limit

    def write(self, session) -> List[Path]:
        self.directory.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        for index, cag in enumerate(session.trace.cags[: self.limit]):
            path = self.directory / f"cag_{index:04d}.dot"
            path.write_text(
                cag_to_dot(cag, title=f"CAG {index} ({cag.cag_id})") + "\n",
                encoding="utf-8",
            )
            written.append(path)
        return written
