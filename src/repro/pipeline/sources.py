"""Activity sources: where a pipeline's trace comes from.

A *source* hides how raw TCP_TRACE data is obtained and classified; the
pipeline only ever asks it for **fresh** typed activities -- all of them
(:meth:`Source.activities`, what the batch and sharded drivers take) or
in arrival order a chunk at a time (:meth:`Source.chunks`, what the
streaming driver takes).  Fresh matters:
the correlation engine mutates byte counters in place while merging
segmented messages, so every backend pass (and every arm of an
equivalence check) must receive its own activity objects.  Three shapes
cover the repo's call sites:

:class:`RunSource`
    A simulated experiment -- built from a
    :class:`~repro.topology.library.ScenarioConfig` (executed lazily and
    memoised through the shared
    :class:`~repro.experiments.runner.RunCache`) or wrapped around an
    already-completed run.  Carries ground truth, so accuracy stages
    work.
:class:`LogSource`
    One or more TCP_TRACE log files read a block at a time through the
    tail reader (:class:`~repro.stream.FileTailSource`) and classified by
    an :class:`~repro.stream.ActivityStream` -- the offline shape of a
    real deployment's gathered logs.  Its ``chunks()`` is a time-sliced
    merge of the per-node files that holds about a block per file in
    front of the engine, not the trace.
:class:`MemorySource`
    Already-classified activities (cloned on every request).

:func:`as_source` adapts any of the accepted inputs (config, run result,
path, activity list, or an existing source) so :class:`repro.pipeline.
Pipeline` accepts them all directly.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.accuracy import GroundTruthRequest
from ..core.activity import Activity, restamp
from ..core.interning import ActivityTable
from ..core.log_format import ActivityClassifier, FrontendSpec
from ..stream import ActivityStream, FileTailSource, arrival_chunks

_by_timestamp = attrgetter("timestamp")


class Source:
    """Interface every pipeline source implements."""

    def activities(self) -> List[Activity]:
        """Freshly classified/cloned activities (safe to mutate)."""
        raise NotImplementedError

    def chunks(self, chunk_size: int) -> Iterator[List[Activity]]:
        """The trace in arrival order, ``chunk_size`` activities at a time.

        What the streaming backend consumes.  Concatenated, the chunks
        are ``sorted(self.activities(), key=sort_key)``; this default is
        exactly that, which is right for a source whose trace is in
        memory anyway.
        """
        return arrival_chunks(self.activities(), chunk_size)

    def blocks(self) -> Iterator[Union[List[Activity], ActivityTable]]:
        """The trace in pieces of any order, for a driver that buffers all
        of it before correlating (the batch backend).

        A piece is whatever :meth:`repro.core.correlator.IncrementalEngine.
        buffer` accepts: an activity list or an
        :class:`~repro.core.interning.ActivityTable` of packed rows, which
        a source that reads text can yield without building an object
        per line (:class:`LogSource` does).  This default is the one
        piece ``activities()``.
        """
        yield self.activities()

    def describe(self) -> str:
        """One-line human description (CLI banners, reports)."""
        raise NotImplementedError

    @property
    def ground_truth(self) -> Optional[Dict[int, GroundTruthRequest]]:
        """Oracle request records, when the source knows them."""
        return None

    @property
    def run(self):
        """The underlying simulation run, when there is one."""
        return None

    # Counters of the most recent read (``activities()``, or ``chunks()``
    # once exhausted); 0 on a source they do not apply to.
    #: records dropped by the attribute-based noise filter
    filtered_records: int = 0
    #: unparseable lines dropped
    malformed_lines: int = 0
    #: blank and ``#`` comment lines
    skipped_lines: int = 0
    #: rows that reached ``chunks()`` with a timestamp below what it had
    #: already handed out (a node log out of local-clock order); they are
    #: delivered with the next chunk, never dropped
    late_lines: int = 0
    #: most activities ``chunks()`` held in front of the engine at once
    peak_buffered: int = 0


class RunSource(Source):
    """A simulated experiment as a pipeline source.

    Built either from a run *config* (a ``ScenarioConfig`` -- executed
    lazily on first use, memoised through the experiments run
    cache so figure suites and pipelines share simulations) or from a
    completed :class:`~repro.topology.deployment.TopologyRunResult`.
    """

    def __init__(self, config=None, run=None, cache=None) -> None:
        if (config is None) == (run is None):
            raise ValueError("pass exactly one of config= or run=")
        self._config = config
        self._run = run
        self._cache = cache

    @classmethod
    def from_run(cls, run) -> "RunSource":
        return cls(run=run)

    @property
    def run(self):
        if self._run is None:
            # Imported lazily: experiments.runner is a higher layer that
            # itself builds on the pipeline backends.
            from ..experiments.runner import get_run

            self._run = get_run(self._config, self._cache)
        return self._run

    @property
    def config(self):
        return self._config if self._config is not None else self.run.config

    @property
    def ground_truth(self) -> Dict[int, GroundTruthRequest]:
        return self.run.ground_truth

    def frontend_spec(self) -> FrontendSpec:
        return self.run.frontend_spec()

    def activities(self) -> List[Activity]:
        # Re-classify the raw records on every call so each invocation
        # hands out fresh objects; going through our own classifier also
        # surfaces the attribute-filter count for the trace summary.
        run = self.run
        classifier = ActivityClassifier(
            frontends=[run.frontend_spec()],
            ignore_programs=set(run.topology.ignore_programs),
        )
        activities = run.activities(classifier)
        self.filtered_records = classifier.filtered_count
        return activities

    def describe(self) -> str:
        run = self._run
        if run is None:
            return f"simulation of scenario {self._config.scenario}"
        return (
            f"simulated {run.topology.name} run "
            f"({run.completed_requests} requests, "
            f"{run.total_activities} activities)"
        )


class LogSource(Source):
    """TCP_TRACE log files as a pipeline source.

    Both feeds read the files through one block reader: a ``chunk_bytes``
    read of one file, its completed lines (torn lines are reassembled
    across reads) classified with the frontend description before the
    next read, so no path holds a whole file's text.

    ``activities()`` -- for the sharded backend, which partitions the
    whole trace, and for anyone who wants the objects -- drains the files
    one after another in path order; what consumes it re-sorts into its
    own processing order, so that order does not matter.

    ``blocks()`` -- for the batch backend, which buffers everything
    before it correlates anything -- is the same drain a read block at a
    time, each block's kept lines as packed
    :class:`~repro.core.interning.ActivityTable` rows
    (:meth:`~repro.core.log_format.ActivityClassifier.pack_lines`): no
    ``Activity`` exists until the ranker delivers a row, and a line it
    discards as noise never becomes one.  Row for row (``seq`` included)
    it is ``activities()``.

    ``chunks()`` -- for the streaming backend -- is a time-sliced merge
    of the per-node files, each expected in its node's local-clock order
    (a kernel log is):

    * buffer one block per file; a file's *frontier* is the timestamp of
      the last row read from it, at or above which its next rows lie;
    * the *limit* is the lowest frontier among files that still have
      data.  Release from every file the rows with timestamp **strictly
      below** it (everything, once all files are exhausted) -- strictly,
      because the file that set the limit may hold more rows of exactly
      that timestamp in its next block, and every row of one timestamp
      must leave in one slice for the next step to order them;
    * concatenate the released runs in path order and **stable-sort the
      slice by timestamp alone**.  ``activities()`` creates rows in path
      order then line order, so this reproduces ``sorted(activities(),
      key=sort_key)``, cross-node ties included, without consulting
      ``seq`` -- which here reflects the interleaved reads, and is
      re-drawn in release order (the rank kernels break ties between
      node heads on it);
    * re-cut the slices to ``chunk_size``, so the engine sees the chunk
      boundaries (eviction sweeps, checkpoint cadence) it would see over
      the sorted whole, and refill the file that set the limit.

    The source then holds about a block per file (``peak_buffered``), not
    the trace.  A row out of its file's order is sorted into place while
    its neighbours are still buffered; one that arrives below a limit
    already released cannot be put back: it leaves with the next slice
    and is counted in ``late_lines``.  (A row far *ahead* of its file's
    clock that ends a block holds that file back until the others catch
    up, and what the file delivers then is late.)

    After ``activities()`` returns or ``blocks()`` / ``chunks()`` is
    exhausted, ``lines_read == activities + filtered_records +
    malformed_lines + skipped_lines``.
    """

    def __init__(
        self,
        paths: Union[str, os.PathLike, Sequence[Union[str, os.PathLike]]],
        frontend: FrontendSpec,
        ignore_programs: Optional[Iterable[str]] = None,
        chunk_bytes: int = 64 * 1024,
    ) -> None:
        if isinstance(paths, (str, os.PathLike)):
            paths = [paths]
        self.paths = [os.fspath(path) for path in paths]
        if not self.paths:
            raise ValueError("LogSource needs at least one path")
        self.frontend = frontend
        self.ignore_programs = set(ignore_programs or ())
        self.chunk_bytes = chunk_bytes
        self.lines_read = 0

    def _block_readers(
        self, packed: bool = False
    ) -> List[Iterator[Union[List[Activity], ActivityTable]]]:
        """One iterator of classified blocks per file, in path order, over
        one shared classifier: activity lists, or ``packed`` tables.
        Resets the read counters; the iterators keep them current."""
        stream = ActivityStream(
            frontends=[self.frontend], ignore_programs=set(self.ignore_programs)
        )
        self.lines_read = self.late_lines = self.peak_buffered = 0
        classify = stream.pack_lines if packed else stream.classify_lines

        def blocks(path: str) -> Iterator[Union[List[Activity], ActivityTable]]:
            tail = FileTailSource(path, chunk_bytes=self.chunk_bytes)
            for lines in tail.blocks(final=True):
                activities = classify(lines)
                self.lines_read += len(lines)
                self.malformed_lines = stream.malformed_lines
                self.filtered_records = stream.filtered_records
                self.skipped_lines = stream.skipped_lines
                if len(activities):
                    yield activities

        return [blocks(path) for path in self.paths]

    def activities(self) -> List[Activity]:
        activities: List[Activity] = []
        for reader in self._block_readers():
            for block in reader:
                activities += block
        return activities

    def blocks(self) -> Iterator[ActivityTable]:
        for reader in self._block_readers(packed=True):
            yield from reader

    def chunks(self, chunk_size: int) -> Iterator[List[Activity]]:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        readers = self._block_readers()
        files = range(len(readers))
        rows: List[List[Activity]] = [[] for _ in files]
        stamps: List[List[float]] = [[] for _ in files]
        # +inf once a file is exhausted: it no longer bounds the limit.
        frontier = [-math.inf] * len(readers)
        released = -math.inf
        held = 0
        pending: List[Activity] = []  # released, not yet a whole chunk
        while released < math.inf:
            for index in files:
                if frontier[index] > released:
                    continue
                block = next(readers[index], None)
                if block is None:
                    frontier[index] = math.inf
                    continue
                held += len(block)
                frontier[index] = block[-1].timestamp
                buffered = rows[index]
                buffered += block
                buffered.sort(key=_by_timestamp)
                column = stamps[index] = list(map(_by_timestamp, buffered))
                # What was kept is at or above ``released``, so whatever
                # is below it arrived just now.
                self.late_lines += bisect_left(column, released)
            if held > self.peak_buffered:
                self.peak_buffered = held
            # A frontier below ``released`` (a late row ended the block)
            # bounds nothing that can still be ordered.
            released = max(released, min(frontier))
            ready: List[Activity] = []
            for index in files:
                cut = bisect_left(stamps[index], released)
                if cut:
                    ready += rows[index][:cut]
                    del rows[index][:cut], stamps[index][:cut]
            ready.sort(key=_by_timestamp)
            restamp(ready)
            pending += ready
            whole = len(pending) - len(pending) % chunk_size
            for start in range(0, whole, chunk_size):
                yield pending[start : start + chunk_size]
            del pending[:whole]
            held -= whole
        if pending:
            yield pending

    def describe(self) -> str:
        names = ", ".join(os.path.basename(path) for path in self.paths)
        return f"log file(s) {names} (frontend {self.frontend.ip}:{self.frontend.port})"


class MemorySource(Source):
    """Already-classified activities as a pipeline source.

    The held activities are treated as immutable originals: every
    ``activities()`` call returns clones, so repeated backend passes (the
    equivalence matrix) never share mutable state.
    """

    def __init__(
        self,
        activities: Iterable[Activity],
        ground_truth: Optional[Dict[int, GroundTruthRequest]] = None,
    ) -> None:
        self._activities = list(activities)
        self._ground_truth = ground_truth

    @property
    def ground_truth(self) -> Optional[Dict[int, GroundTruthRequest]]:
        return self._ground_truth

    def activities(self) -> List[Activity]:
        return [activity.clone() for activity in self._activities]

    def describe(self) -> str:
        return f"{len(self._activities)} in-memory activities"


def as_source(obj, **kwargs) -> Source:
    """Adapt ``obj`` into a :class:`Source`.

    Accepts an existing source (returned unchanged), a run config (a
    ``ScenarioConfig``), a completed run result, or an iterable of
    activities.  Log files need a frontend description, so
    pass a :class:`LogSource` explicitly for those.
    """
    if isinstance(obj, Source):
        return obj
    # Local imports keep this module independent of the simulation layers
    # unless the adaptation actually needs them.
    from ..topology.deployment import TopologyRunResult
    from ..topology.library import ScenarioConfig

    if isinstance(obj, ScenarioConfig):
        return RunSource(config=obj, **kwargs)
    if isinstance(obj, TopologyRunResult):
        return RunSource(run=obj, **kwargs)
    if isinstance(obj, (list, tuple)) and (not obj or isinstance(obj[0], Activity)):
        return MemorySource(obj, **kwargs)
    raise TypeError(
        f"cannot build a pipeline source from {type(obj).__name__}; "
        "pass a ScenarioConfig, a run result, an activity "
        "list, or a Source instance (LogSource for log files)"
    )
