"""Correlation backends behind one declarative spec.

:class:`BackendSpec` is the one value object that names a backend and
carries its knobs, and the one driver: it builds the
:class:`~repro.core.correlator.IncrementalEngine` a run needs and feeds
it.  Callers (CLI, experiments, examples, tests) select a backend
declaratively::

    spec = BackendSpec.streaming(horizon=5.0)
    trace = spec.run(source)                     # TraceResult, from a Source
    result = spec.correlate(activities)          # CorrelationResult
    trace = spec.trace(activities)               # TraceResult

The three kinds feed the same engine differently: ``batch`` buffers every
piece of the trace, seals and drains once, a slice at a time;
``streaming`` ingests arrival-order chunks and can checkpoint and resume
(:mod:`repro.stream.checkpoint`); ``sharded`` is the equivalence oracle:
it correlates each causally-closed component on an engine of its own,
one after another, and merges them (:mod:`repro.stream.sharded`).  All
three produce the same
:class:`~repro.core.correlator.CorrelationResult` type, and -- with
eviction disabled -- the same finished CAGs (the equivalence asserted by
:func:`repro.pipeline.verify_equivalence`).  Which knobs apply:

============  =========================================================
``batch``     ``window`` only
``streaming`` ``window``, ``horizon``, ``skew_bound``, ``chunk_size``,
              ``checkpoint_path``, ``checkpoint_every``, ``resume_from``
``sharded``   ``window`` only
============  =========================================================
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Iterable, List, Optional, Union

from ..core.activity import Activity
from ..core.cag import CAG
from ..core.correlator import CorrelationResult, IncrementalEngine
from ..core.interning import ActivityTable, as_table, joined
from ..core.tracer import TraceResult
from ..sampling import SamplingSpec
from ..stream import arrival_chunks, iter_chunks
from ..stream.checkpoint import config_fingerprint, resume_checkpoint, save_checkpoint
from ..stream.sharded import correlate_components

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
        # NaN passes every ``x <= 0`` test, so finiteness is checked first.
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive and finite, got {self.window:g}")
        if self.horizon is not None and not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(
                "horizon must be positive and finite (or None to disable), "
                f"got {self.horizon:g}"
            )
        if not (math.isfinite(self.skew_bound) and self.skew_bound >= 0):
            raise ValueError(f"skew_bound must be non-negative and finite, got {self.skew_bound:g}")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
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
        # Refused here, before anything is read or simulated, not when the
        # first checkpoint is due or the drive reaches the resume.
        if self.resume_from is not None and not os.path.isfile(self.resume_from):
            raise ValueError(
                f"resume_from must be an existing checkpoint file, not found: {self.resume_from}"
            )
        if self.checkpoint_path is not None:
            directory = os.path.dirname(os.path.abspath(self.checkpoint_path))
            if not os.path.isdir(directory):
                raise ValueError(
                    f"checkpoint_path must be in an existing directory, not found: {directory}"
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
        sampling: Optional[SamplingSpec] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
    ) -> "BackendSpec":
        # ``max_workers`` and ``executor`` are spellings kept for one
        # caller: the benchmark harness's sharded leg,
        # ``BackendSpec.sharded(max_workers=2, executor="thread")`` in
        # benchmarks/e2e/worker.py.  Components run one after another, so
        # neither changes anything; a bad value is still refused.  Both
        # go when that harness is next revised.
        if max_workers is not None and (
            isinstance(max_workers, bool) or not isinstance(max_workers, int) or max_workers <= 0
        ):
            raise ValueError(f"max_workers must be None or a positive int (got {max_workers!r})")
        if executor != "thread":
            raise ValueError(
                f"unknown executor {executor!r}: sharded correlation runs "
                "one component after another"
            )
        return cls(kind="sharded", window=window, sampling=sampling)

    def with_overrides(self, **kwargs) -> "BackendSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)

    # -- execution -----------------------------------------------------------

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
        the drive and nothing is materialised in front of the engine
        (unless a sampling policy needs a whole-trace pre-pass).
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
            result = correlate_components(activities, self.window, self.sampling)
            hand_out(result.cags)
            timings.wall_clock_s = perf_counter() - start
            return result

        # Batch and streaming are both producers: CAGs leave while the
        # engine runs (between drain slices, between chunks).  Neither
        # holds what it reads: chunks are consumed as they are produced,
        # and nothing here names the trace as a whole once it is fed.
        streaming = self.kind == "streaming"
        if source is not None:
            chunks = source.chunks(self.chunk_size) if streaming else source.blocks()
        elif streaming:
            chunks = arrival_chunks(activities, self.chunk_size)
        else:
            chunks = (activities,)
        activities = None
        engine, chunks = self._engine(chunks)
        if streaming:
            # Cadence in *ingested activities*, written at chunk
            # boundaries: the next threshold is the first multiple of
            # ``every`` past what the engine has already seen (which on
            # resume is mid-trace).
            every = self.checkpoint_every
            due = (engine.total_ingested // every + 1) * every if every else None
            for chunk in chunks:
                hand_out(engine.ingest(chunk))
                if due is not None and engine.total_ingested >= due:
                    save_checkpoint(
                        self.checkpoint_path,
                        engine,
                        ingested_count=engine.total_ingested,
                        config=config_fingerprint(self),
                    )
                    due = (engine.total_ingested // every + 1) * every
            hand_out(engine.flush())
        else:
            # Everything first, nothing delivered: the watermark gates no
            # decision when the ranker is sealed before its first rank().
            for chunk in chunks:
                engine.buffer(chunk)
            chunk = chunks = None
            for finished in engine.flush_slices():
                hand_out(finished)
        result = engine.result()
        timings.wall_clock_s = perf_counter() - start
        return result

    def _engine(self, chunks: Iterable[ActivityTable]):
        """The engine a batch or streaming drive feeds, and the part of
        ``chunks`` still to feed it: a checkpointed engine past the
        prefix it has seen, or a fresh one over the whole trace.

        A fresh engine's horizon and skew bound are inert on a batch
        drive, whose ranker is sealed before its first decision.  Only a
        sampling policy that ``needs_prepass`` (the per-second budget)
        holds the trace in front of the engine: it freezes its decisions
        from the whole of it, as the sharded driver does before it
        partitions.
        """
        if self.resume_from is not None:
            return resume_checkpoint(self.resume_from, config_fingerprint(self), chunks)
        decisions = None
        if self.sampling is not None and self.sampling.needs_prepass:
            whole = joined(chunks)
            decisions = self.sampling.freeze(whole)
            chunks = iter_chunks(whole, self.chunk_size) if self.kind == "streaming" else (whole,)
        engine = IncrementalEngine(
            window=self.window,
            horizon=self.horizon,
            skew_bound=self.skew_bound,
            sampling=self.sampling,
            sampling_decisions=decisions,
        )
        return engine, chunks

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
