"""Activity sources: where a pipeline's trace comes from.

A *source* hides how raw TCP_TRACE data is obtained and classified; a
driver asks it for the trace as packed
:class:`~repro.core.interning.ActivityTable` rows -- in pieces of any
order (:meth:`Source.blocks`, what the batch and sharded drivers take)
or in arrival order a chunk at a time (:meth:`Source.chunks`, what the
streaming driver takes).  A run builds the ``Activity`` of a row when it
delivers it, so one source backs any number of passes (every arm of an
equivalence check) without a copy; :meth:`Source.activities` hands the
trace out as objects for a caller that wants them.  Three shapes cover
the repo's call sites:

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
    Already-classified activities, packed once when the source is built.

:func:`as_source` adapts any of the accepted inputs (config, run result,
path, activity list, or an existing source) so :class:`repro.pipeline.
Pipeline` accepts them all directly.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.accuracy import GroundTruthRequest
from ..core.activity import Activity
from ..core.interning import ActivityTable, KeySpace, as_table, joined
from ..core.log_format import ActivityClassifier, FrontendSpec
from ..stream import ActivityStream, FileTailSource, arrival_chunks


class Source:
    """Interface every pipeline source implements."""

    def activities(self) -> List[Activity]:
        """The trace as ``Activity`` objects."""
        raise NotImplementedError

    def chunks(self, chunk_size: int) -> Iterator[ActivityTable]:
        """The trace in arrival order, ``chunk_size`` rows at a time.

        What the streaming backend consumes.  Concatenated, the chunks
        are ``sorted(self.activities(), key=sort_key)``, packed; this
        default is exactly that, which is right for a source whose trace
        is in memory anyway.
        """
        return arrival_chunks(self.table(), chunk_size)

    def blocks(self) -> Iterator[ActivityTable]:
        """The trace as packed rows in pieces of any order, for a driver
        that takes all of it before correlating (the batch and sharded
        backends): what :meth:`repro.core.correlator.IncrementalEngine.
        buffer` accepts.  This default is the one piece :meth:`table`.
        """
        yield self.table()

    def table(self) -> ActivityTable:
        """The whole trace as one table: :meth:`activities`, packed."""
        return ActivityTable.from_activities(self.activities())

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
        # Classify the raw records through our own classifier: that
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

    ``blocks()`` -- for the batch and sharded backends, which take
    everything before they correlate anything -- drains the files one
    after another in path order, a read block at a time, each block's
    kept lines as packed :class:`~repro.core.interning.ActivityTable`
    rows (:meth:`~repro.core.log_format.ActivityClassifier.pack_lines`):
    no ``Activity`` exists until the ranker delivers a row, and a line it
    discards as noise never becomes one.  What consumes it re-sorts into
    its own processing order, so the path order does not matter.
    ``activities()`` is the same drain with every row built into its
    object (``seq`` included), for a caller that wants the objects.

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
      slice by timestamp alone**.  ``blocks()`` creates rows in path
      order then line order, so this reproduces ``sorted(activities(),
      key=sort_key)``, cross-node ties included, without consulting
      ``seq`` -- which here reflects the interleaved reads, and is
      re-drawn in release order (:meth:`ActivityTable.restamp`: the rank
      kernels break ties between node heads on it);
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

    def _block_readers(self) -> Tuple[KeySpace, List[Iterator[ActivityTable]]]:
        """One iterator of packed blocks per file, in path order, over
        one shared classifier, and the key space of every block.  Resets
        the read counters; the iterators keep them current."""
        stream = ActivityStream(
            frontends=[self.frontend], ignore_programs=set(self.ignore_programs)
        )
        self.lines_read = self.late_lines = self.peak_buffered = 0

        def blocks(path: str) -> Iterator[ActivityTable]:
            tail = FileTailSource(path, chunk_bytes=self.chunk_bytes)
            for lines in tail.blocks(final=True):
                rows = stream.classify_lines(lines)
                self.lines_read += len(lines)
                self.malformed_lines = stream.malformed_lines
                self.filtered_records = stream.filtered_records
                self.skipped_lines = stream.skipped_lines
                if len(rows):
                    yield rows

        return stream.classifier.keys, [blocks(path) for path in self.paths]

    def activities(self) -> List[Activity]:
        activities: List[Activity] = []
        for block in self.blocks():
            activities += block
        return activities

    def blocks(self) -> Iterator[ActivityTable]:
        for reader in self._block_readers()[1]:
            yield from reader

    def table(self) -> ActivityTable:
        return joined(self.blocks())

    def chunks(self, chunk_size: int) -> Iterator[ActivityTable]:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        keys, readers = self._block_readers()
        files = range(len(readers))
        rows = [ActivityTable(keys) for _ in files]
        # +inf once a file is exhausted: it no longer bounds the limit.
        frontier = [-math.inf] * len(readers)
        released = -math.inf
        held = 0
        pending = ActivityTable(keys)  # released, not yet a whole chunk
        while released < math.inf:
            for index in files:
                if frontier[index] > released:
                    continue
                block = next(readers[index], None)
                if block is None:
                    frontier[index] = math.inf
                    continue
                held += len(block)
                frontier[index] = block.timestamp(len(block) - 1)
                rows[index].concat(block)
                rows[index] = rows[index].ordered(by_seq=False)
                # What was kept is at or above ``released``, so whatever
                # is below it arrived just now.
                self.late_lines += bisect_left(rows[index]._timestamps, released)
            if held > self.peak_buffered:
                self.peak_buffered = held
            # A frontier below ``released`` (a late row ended the block)
            # bounds nothing that can still be ordered.
            released = max(released, min(frontier))
            ready = ActivityTable(keys)
            for index in files:
                cut = bisect_left(rows[index]._timestamps, released)
                if cut:
                    ready.concat(rows[index][:cut])
                    rows[index].release(cut)
            ready = ready.ordered(by_seq=False)
            ready.restamp()
            pending.concat(ready)
            whole = len(pending) - len(pending) % chunk_size
            for start in range(0, whole, chunk_size):
                yield pending[start : start + chunk_size]
            pending.release(whole)
            held -= whole
        if len(pending):
            yield pending

    def describe(self) -> str:
        names = ", ".join(os.path.basename(path) for path in self.paths)
        return f"log file(s) {names} (frontend {self.frontend.ip}:{self.frontend.port})"


class MemorySource(Source):
    """Already-classified activities as a pipeline source.

    The activities are packed once, here
    (:meth:`ActivityTable.from_activities`); every pass reads that table
    and builds objects of its own, so repeated backend passes (the
    equivalence matrix) share nothing mutable and the caller's objects
    are never touched.
    """

    def __init__(
        self,
        activities: Union[Iterable[Activity], ActivityTable],
        ground_truth: Optional[Dict[int, GroundTruthRequest]] = None,
    ) -> None:
        self._table = as_table(activities)
        self._ground_truth = ground_truth

    @property
    def ground_truth(self) -> Optional[Dict[int, GroundTruthRequest]]:
        return self._ground_truth

    def activities(self) -> List[Activity]:
        return list(self._table)

    def table(self) -> ActivityTable:
        return self._table

    def describe(self) -> str:
        return f"{len(self._table)} in-memory activities"


def as_source(obj, **kwargs) -> Source:
    """Adapt ``obj`` into a :class:`Source`.

    Accepts an existing source (returned unchanged), a run config (a
    ``ScenarioConfig``), a completed run result, an activity list or an
    :class:`~repro.core.interning.ActivityTable`.  Log files need a
    frontend description, so pass a :class:`LogSource` explicitly for
    those.
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
    if isinstance(obj, ActivityTable) or (
        isinstance(obj, (list, tuple)) and (not obj or isinstance(obj[0], Activity))
    ):
        return MemorySource(obj, **kwargs)
    raise TypeError(
        f"cannot build a pipeline source from {type(obj).__name__}; "
        "pass a ScenarioConfig, a run result, an activity "
        "list, or a Source instance (LogSource for log files)"
    )
