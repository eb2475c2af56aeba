"""Correlation backends behind one declarative spec.

The repo grew three correlation drivers -- the offline batch
:class:`~repro.core.correlator.Correlator`, the online
:class:`~repro.stream.StreamingCorrelator` and the shard-by-shard
:class:`~repro.stream.ShardedCorrelator` -- each with its own knobs.
:class:`BackendSpec` is the one value object that names a driver and
carries its knobs, so callers (CLI, experiments, examples, tests) select
a backend declaratively instead of wiring a correlator by hand::

    spec = BackendSpec.streaming(horizon=5.0)
    trace = spec.run(source)                     # TraceResult, from a Source
    result = spec.correlate(activities)          # CorrelationResult
    trace = spec.trace(activities)               # TraceResult

All three backends produce the same
:class:`~repro.core.correlator.CorrelationResult` type, and -- with
eviction disabled -- the same finished CAGs (the equivalence asserted by
:func:`repro.pipeline.verify_equivalence`).  Which knobs apply:

============  =========================================================
``batch``     ``window`` only
``streaming`` ``window``, ``horizon``, ``skew_bound``, ``chunk_size``,
              ``checkpoint_path``, ``checkpoint_every``, ``resume_from``
``sharded``   ``window``, ``max_shards``, ``max_workers``
============  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Union

from ..core.activity import Activity
from ..core.cag import CAG
from ..core.correlator import CorrelationResult, Correlator
from ..core.interning import ActivityTable, as_table
from ..core.tracer import TraceResult
from ..sampling import SamplingSpec
from ..stream import ShardedCorrelator, StreamingCorrelator
from ..stream.sharded import require_positive_or_none

#: The three backend kinds, in canonical (equivalence-matrix) order.
BACKEND_KINDS = ("batch", "streaming", "sharded")


@dataclass
class DriveTimings:
    """Where one drive's wall clock went, in seconds.

    Filled in by :meth:`BackendSpec.run`.  Wall-clock readings: they are
    part of no digest and no golden.
    """

    #: make-the-driver to result-in-hand: read + classify (streaming),
    #: buffering, correlation and every ``on_cag`` call
    wall_clock_s: float = 0.0
    #: drive start to the first finished CAG leaving the driver (``None``
    #: when the trace finished no request)
    first_cag_s: Optional[float] = None
    #: total spent inside ``on_cag`` (0 without a hook)
    hook_time_s: float = 0.0


@dataclass(frozen=True)
class BackendSpec:
    """A correlation driver plus its knobs, as one comparable value.

    Frozen so specs can key caches and appear in reprs/reports; use
    :meth:`with_overrides` (or :func:`dataclasses.replace`) to derive
    variants.
    """

    kind: str = "batch"
    #: sliding-time-window size in seconds (all backends)
    window: float = 0.010
    #: streaming eviction horizon in seconds (``None`` = never evict)
    horizon: Optional[float] = None
    #: streaming reorder slack: upper bound on node clock skew, seconds
    skew_bound: float = 0.005
    #: streaming ingestion chunk size, activities
    chunk_size: int = 256
    #: sharded: upper bound on shard count (``None`` = one per component)
    max_shards: Optional[int] = None
    #: sharded: thread-pool size (``None`` = ``os.cpu_count()``; never
    #: more than the shard count)
    max_workers: Optional[int] = None
    #: streaming: checkpoint file path (requires ``checkpoint_every``)
    checkpoint_path: Optional[str] = None
    #: streaming: checkpoint cadence in ingested activities
    checkpoint_every: Optional[int] = None
    #: streaming: resume from this checkpoint file instead of starting
    #: from the head of the trace
    resume_from: Optional[str] = None
    #: request sampling policy (``None`` = trace every request).  The
    #: decision is made at each causal root by deterministic hashing, so
    #: every backend kind samples the identical request subset and
    #: :func:`~repro.pipeline.verify_equivalence` applies to sampled
    #: runs unchanged.  The ``adaptive`` policy needs one sequential
    #: engine and is rejected on the sharded backend.
    sampling: Optional[SamplingSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; valid kinds: "
                f"{', '.join(BACKEND_KINDS)}"
            )
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive (or None to disable)")
        if self.skew_bound < 0:
            raise ValueError("skew_bound must be non-negative")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        require_positive_or_none("max_shards", self.max_shards)
        require_positive_or_none("max_workers", self.max_workers)
        if (self.checkpoint_path is None) != (self.checkpoint_every is None):
            raise ValueError(
                "checkpoint_path and checkpoint_every must be set together"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.kind != "streaming":
            if self.checkpoint_path is not None or self.resume_from is not None:
                raise ValueError(
                    "checkpointing and resume are streaming-backend features "
                    f"(backend kind is {self.kind!r})"
                )
        if self.sampling is not None:
            if not isinstance(self.sampling, SamplingSpec):
                raise ValueError(
                    "sampling must be a repro.sampling.SamplingSpec "
                    f"(got {type(self.sampling).__name__})"
                )
            if self.sampling.kind == "adaptive" and self.kind == "sharded":
                raise ValueError(
                    "adaptive sampling feeds back from one sequential "
                    "engine's state; use the batch or streaming backend "
                    "(or a fixed-rate policy) with sharded correlation"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def batch(
        cls, window: float = 0.010, sampling: Optional[SamplingSpec] = None
    ) -> "BackendSpec":
        return cls(kind="batch", window=window, sampling=sampling)

    @classmethod
    def streaming(
        cls,
        window: float = 0.010,
        horizon: Optional[float] = None,
        skew_bound: float = 0.005,
        chunk_size: int = 256,
        sampling: Optional[SamplingSpec] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[str] = None,
    ) -> "BackendSpec":
        return cls(
            kind="streaming",
            window=window,
            horizon=horizon,
            skew_bound=skew_bound,
            chunk_size=chunk_size,
            sampling=sampling,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )

    @classmethod
    def sharded(
        cls,
        window: float = 0.010,
        max_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        sampling: Optional[SamplingSpec] = None,
    ) -> "BackendSpec":
        # ``executor`` is a spelling kept for one caller: the benchmark
        # harness's sharded leg, ``BackendSpec.sharded(max_workers=2,
        # executor="thread")`` in benchmarks/e2e/worker.py.  Shards always
        # run on a thread pool; the keyword goes when that harness is next
        # revised.
        if executor != "thread":
            raise ValueError(
                f"unknown executor {executor!r}: sharded correlation runs "
                "on a thread pool only"
            )
        return cls(
            kind="sharded",
            window=window,
            max_shards=max_shards,
            max_workers=max_workers,
            sampling=sampling,
        )

    def with_overrides(self, **kwargs) -> "BackendSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)

    # -- execution -----------------------------------------------------------

    def make_correlator(self):
        """Instantiate the configured driver."""
        if self.kind == "batch":
            return Correlator(window=self.window, sampling=self.sampling)
        if self.kind == "streaming":
            return StreamingCorrelator(
                window=self.window,
                horizon=self.horizon,
                skew_bound=self.skew_bound,
                chunk_size=self.chunk_size,
                sampling=self.sampling,
                checkpoint_path=self.checkpoint_path,
                checkpoint_every=self.checkpoint_every,
                resume_from=self.resume_from,
            )
        return ShardedCorrelator(
            window=self.window,
            max_workers=self.max_workers,
            max_shards=self.max_shards,
            sampling=self.sampling,
        )

    def run(
        self,
        source,
        on_cag: Optional[Callable[[CAG], None]] = None,
        timings: Optional[DriveTimings] = None,
    ) -> TraceResult:
        """Read ``source`` (a :class:`~repro.pipeline.sources.Source`) and
        correlate it -- the one place a source meets a driver.

        The streaming backend consumes ``source.chunks(chunk_size)`` as
        they are produced, so reading and classification happen inside
        the drive and nothing is materialised in front of the engine.
        The batch backend, which buffers the whole trace before its first
        decision, consumes ``source.blocks()``, and the sharded backend
        partitions ``source.table()``.  Every feed is packed
        :class:`~repro.core.interning.ActivityTable` rows, and an
        ``Activity`` is built only for a row the ranker delivers.
        ``on_cag`` as in :meth:`correlate`; a :class:`DriveTimings` passed
        as ``timings`` is filled in.
        """
        # A lazily simulated source runs here: the drive's clock covers
        # reading a trace, not producing one.
        _ = source.run
        result = self._drive(on_cag, source=source, timings=timings)
        # Attribute-filtered record count is a property of classification,
        # which happens inside the source (and, chunked, during the drive).
        return TraceResult(
            correlation=result, filtered_records=source.filtered_records
        )

    def correlate(
        self,
        activities: Union[Iterable[Activity], ActivityTable],
        on_cag: Optional[Callable[[CAG], None]] = None,
    ) -> CorrelationResult:
        """Run the configured driver over ``activities``.

        ``on_cag`` is invoked once per finished CAG, in ``result.cags``
        order.  On the streaming and batch backends it fires *while the
        engine runs*: streaming hands a CAG out at the end of the chunk
        that finished it (mid-stream, the online monitoring hook); batch
        buffers the whole trace first and then hands CAGs out between
        slices of its one drain, so the first one leaves well before the
        last activity is correlated.  Either way the hook runs outside
        the ``correlation_time`` clock, and it sees a CAG the moment its
        END is correlated -- trailing parts of a segmented END may still
        add to that vertex's byte count afterwards.  The sharded backend
        only knows its CAGs after the merge, so there the hook fires
        after the pass.

        ``activities`` is an :class:`~repro.core.interning.ActivityTable`
        or objects, which are packed once here.  Every backend builds an
        object of its own for each row it delivers, so the caller's
        objects are never touched and the same input can back any number
        of runs.
        """
        return self._drive(on_cag, as_table(activities))

    def _drive(
        self,
        on_cag: Optional[Callable[[CAG], None]],
        activities: Optional[ActivityTable] = None,
        source=None,
        timings: Optional[DriveTimings] = None,
    ) -> CorrelationResult:
        if timings is None:
            timings = DriveTimings()
        correlator = self.make_correlator()
        start = perf_counter()

        def hand_out(finished: Iterable[CAG]) -> None:
            for cag in finished:
                if timings.first_cag_s is None:
                    timings.first_cag_s = perf_counter() - start
                if on_cag is not None:
                    hook_start = perf_counter()
                    on_cag(cag)
                    timings.hook_time_s += perf_counter() - hook_start

        if self.kind == "sharded":
            # The merged CAG list only exists after the pass.
            if source is not None:
                activities = source.table()
            result = correlator.correlate(activities)
            hand_out(result.cags)
        else:
            # Batch and streaming are both producers: CAGs leave while the
            # engine runs (between drain slices, between chunks).
            # correlate_iter owns engine construction, so the streaming
            # resume_from/checkpoint plumbing applies with or without a hook.
            # Neither holds what it reads: chunks are consumed as they are
            # produced, and nothing here names the trace as a whole.
            chunks = None
            if source is not None:
                chunks = (
                    source.chunks(self.chunk_size)
                    if self.kind == "streaming"
                    else source.blocks()
                )
            hand_out(correlator.correlate_iter(activities, chunks=chunks))
            result = correlator.last_engine.result()
        timings.wall_clock_s = perf_counter() - start
        return result

    def trace(
        self,
        activities: Iterable[Activity],
        on_cag: Optional[Callable[[CAG], None]] = None,
    ) -> TraceResult:
        """Like :meth:`correlate`, wrapped in the analysis-ready
        :class:`~repro.core.tracer.TraceResult`."""
        return TraceResult(correlation=self.correlate(activities, on_cag=on_cag))

    def describe(self) -> str:
        """One-line human description (CLI banners, reports)."""
        parts: List[str] = [f"window={self.window:g}s"]
        if self.kind == "streaming":
            horizon = "none" if self.horizon is None else f"{self.horizon:g}s"
            parts.append(f"horizon={horizon}")
            parts.append(f"skew_bound={self.skew_bound:g}s")
            parts.append(f"chunk_size={self.chunk_size}")
            if self.checkpoint_every is not None:
                parts.append(f"checkpoint_every={self.checkpoint_every}")
            if self.resume_from is not None:
                parts.append(f"resume_from={self.resume_from}")
        elif self.kind == "sharded":
            if self.max_shards is not None:
                parts.append(f"max_shards={self.max_shards}")
            if self.max_workers is not None:
                parts.append(f"max_workers={self.max_workers}")
        if self.sampling is not None:
            parts.append(f"sampling={self.sampling.describe()}")
        # Which rank-kernel backend the drivers will run on (resolved
        # from the current environment; every backend kind uses it).
        from ..core.kernel import kernel_info

        parts.append(f"kernel={kernel_info().name}")
        return f"{self.kind} ({', '.join(parts)})"


def default_backends(
    window: float = 0.010,
    sampling: Optional[SamplingSpec] = None,
    **streaming_knobs,
) -> List[BackendSpec]:
    """One spec per backend kind at a shared window -- the equivalence
    matrix's default axis.  ``sampling`` applies the same sampling policy
    to every backend, extending the matrix to sampled runs."""
    return [
        BackendSpec.batch(window=window, sampling=sampling),
        BackendSpec.streaming(window=window, sampling=sampling, **streaming_knobs),
        BackendSpec.sharded(window=window, sampling=sampling),
    ]
