"""Activity sources: where a pipeline's trace comes from.

A *source* hides how raw TCP_TRACE data is obtained and classified; the
pipeline only ever asks it for **fresh** typed activities.  Fresh matters:
the correlation engine mutates byte counters in place while merging
segmented messages, so every backend pass (and every arm of an
equivalence check) must receive its own activity objects.  Three shapes
cover the repo's call sites:

:class:`RunSource`
    A simulated experiment -- built from a
    :class:`~repro.services.rubis.deployment.RubisConfig` or
    :class:`~repro.topology.library.ScenarioConfig` (executed lazily and
    memoised through the shared
    :class:`~repro.experiments.runner.RunCache`) or wrapped around an
    already-completed run.  Carries ground truth, so accuracy stages
    work.
:class:`LogSource`
    One or more TCP_TRACE log files read through the chunked tail reader
    (:class:`~repro.stream.FileTailSource`) and classified by an
    :class:`~repro.stream.ActivityStream` -- the offline shape of a real
    deployment's gathered logs.
:class:`MemorySource`
    Already-classified activities (cloned on every request).

:func:`as_source` adapts any of the accepted inputs (config, run result,
path, activity list, or an existing source) so :class:`repro.pipeline.
Pipeline` accepts them all directly.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.accuracy import GroundTruthRequest
from ..core.activity import Activity
from ..core.log_format import ActivityClassifier, FrontendSpec
from ..stream import ActivityStream, FileTailSource


class Source:
    """Interface every pipeline source implements."""

    def activities(self) -> List[Activity]:
        """Freshly classified/cloned activities (safe to mutate)."""
        raise NotImplementedError

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

    #: records dropped by the attribute-based noise filter in the most
    #: recent ``activities()`` call (0 when the source does not filter)
    filtered_records: int = 0
    #: unparseable lines dropped in the most recent ``activities()`` call
    malformed_lines: int = 0
    #: blank and ``#`` comment lines in the most recent ``activities()`` call
    skipped_lines: int = 0


class RunSource(Source):
    """A simulated experiment as a pipeline source.

    Built either from a run *config* (``RubisConfig`` / ``ScenarioConfig``
    -- executed lazily on first use, memoised through the experiments run
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
            return f"simulation of {type(self._config).__name__}"
        return (
            f"simulated {run.topology.name} run "
            f"({run.completed_requests} requests, "
            f"{run.total_activities} activities)"
        )


class LogSource(Source):
    """TCP_TRACE log files as a pipeline source.

    Reads each file once through the chunked tail reader (torn lines are
    reassembled across chunk boundaries) and classifies its lines with
    the frontend description before the next file is opened, so at most
    one file's text is held beside the activities.  Several per-node
    files are concatenated in path order; the backends re-sort into their
    own processing order, so that order does not matter.

    After ``activities()``, ``lines_read == len(activities) +
    filtered_records + malformed_lines + skipped_lines``.
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

    def activities(self) -> List[Activity]:
        stream = ActivityStream(
            frontends=[self.frontend], ignore_programs=set(self.ignore_programs)
        )
        self.lines_read = 0
        activities: List[Activity] = []
        for path in self.paths:
            lines = FileTailSource(path, chunk_bytes=self.chunk_bytes).drain()
            self.lines_read += len(lines)
            activities.extend(stream.classify_lines(lines))
        self.malformed_lines = stream.malformed_lines
        self.filtered_records = stream.filtered_records
        self.skipped_lines = stream.skipped_lines
        return activities

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

    Accepts an existing source (returned unchanged), a run config
    (anything with a ``seed`` field and a matching ``run_*`` entry point:
    ``RubisConfig`` or ``ScenarioConfig``), a completed run result, or an
    iterable of activities.  Log files need a frontend description, so
    pass a :class:`LogSource` explicitly for those.
    """
    if isinstance(obj, Source):
        return obj
    # Local imports keep this module independent of the simulation layers
    # unless the adaptation actually needs them.
    from ..services.rubis.deployment import RubisConfig
    from ..topology.deployment import TopologyRunResult
    from ..topology.library import ScenarioConfig

    if isinstance(obj, (RubisConfig, ScenarioConfig)):
        return RunSource(config=obj, **kwargs)
    if isinstance(obj, TopologyRunResult):
        return RunSource(run=obj, **kwargs)
    if isinstance(obj, (list, tuple)) and (not obj or isinstance(obj[0], Activity)):
        return MemorySource(obj, **kwargs)
    raise TypeError(
        f"cannot build a pipeline source from {type(obj).__name__}; "
        "pass a RubisConfig/ScenarioConfig, a run result, an activity "
        "list, or a Source instance (LogSource for log files)"
    )
