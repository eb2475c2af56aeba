"""The streaming driver: one-shot chunked correlation with checkpoints.

:class:`~repro.core.correlator.IncrementalEngine` (re-exported here and
from :mod:`repro.stream`) is the push interface -- ingest chunks, collect
finished CAGs, flush.  For one-shot use over a finite trace,
:class:`StreamingCorrelator` wraps the chunk loop behind the same
``correlate()`` signature as the batch
:class:`~repro.core.correlator.Correlator`, and adds checkpoint/resume.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from ..core.activity import Activity
from ..core.cag import CAG
from ..core.correlator import CorrelationResult, IncrementalEngine
from ..core.interning import ActivityTable
from .checkpoint import load_checkpoint, save_checkpoint
from .reader import arrival_chunks, iter_chunks


class StreamingCorrelator:
    """Drop-in streaming counterpart of the batch ``Correlator``.

    Drives an :class:`IncrementalEngine` chunk by chunk in *arrival
    order* (global timestamp order, the realistic online delivery order)
    and returns the same :class:`~repro.core.correlator.CorrelationResult`
    as the batch driver.  The trace comes in one of two shapes:

    * ``chunks=`` -- an iterator of
      :class:`~repro.core.interning.ActivityTable` chunks already in
      arrival order and cut to ``chunk_size``, as
      :meth:`repro.pipeline.Source.chunks` yields them.  Consumed as it
      is produced: nothing is materialised or sorted here, so in front of
      the engine a log source holds a block per file, not the trace;
    * a flat trace in any order (the batch ``correlate()`` signature: a
      table, or activities, packed on the way in), put into that shape
      once, at the entry, by :func:`~repro.stream.reader.arrival_chunks`
      -- the streaming path's only whole-trace sort, for traces that are
      whole already.

    One case materialises a chunked feed: a sampling policy with
    ``needs_prepass`` (the per-second budget) freezes its decisions from
    the whole trace, exactly as the batch driver does.

    Use :meth:`correlate_iter` instead of :meth:`correlate` to consume
    finished CAGs as they are emitted.

    Checkpoint/resume: with ``checkpoint_path`` + ``checkpoint_every``
    set, the engine state is snapshotted at the first chunk boundary at
    or past every ``checkpoint_every`` ingested activities (see
    :mod:`repro.stream.checkpoint` for the file format).  With
    ``resume_from`` set, correlation revives the saved engine, skips the
    already-ingested prefix of the (deterministic) arrival order while
    consuming it, and continues -- the final result digest is identical
    to an uninterrupted run.  The streaming knobs must match the ones the
    checkpoint was taken under; mismatches raise :class:`ValueError`
    rather than silently producing different output, and so does a trace
    that ends before the checkpoint's prefix does.

    Composing with a persistent :class:`~repro.store.TraceStore` (the
    ``on_cag`` hook of :class:`~repro.pipeline.StoreSink`): CAGs are
    offered to the store as they finish, i.e. at chunk boundaries, so a
    long-running ingest commits request rows incrementally.  After a
    crash-and-resume, CAGs that finished *between* the last checkpoint
    and the crash are re-emitted by the resumed run; store ingest is
    keyed by the request's data-derived root identity and is therefore
    idempotent, so the combined store is identical to one written by an
    uninterrupted run (see :meth:`repro.store.TraceStore.run_digest`).
    """

    def __init__(
        self,
        window: float = 0.010,
        horizon: Optional[float] = None,
        skew_bound: float = 0.005,
        chunk_size: int = 256,
        sampling=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[str] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if (checkpoint_path is None) != (checkpoint_every is None):
            raise ValueError(
                "checkpoint_path and checkpoint_every must be set together"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.window = window
        self.horizon = horizon
        self.skew_bound = skew_bound
        self.chunk_size = chunk_size
        self.sampling = sampling
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        #: The engine the last ``correlate_iter``/``correlate`` call drove;
        #: read ``last_engine.result()`` after consuming the iterator.
        self.last_engine: Optional[IncrementalEngine] = None

    def make_engine(self, sampling_decisions=None) -> IncrementalEngine:
        return IncrementalEngine(
            window=self.window,
            horizon=self.horizon,
            skew_bound=self.skew_bound,
            sampling=self.sampling,
            sampling_decisions=sampling_decisions,
        )

    def correlate(
        self,
        activities: Union[Iterable[Activity], ActivityTable] = (),
        *,
        chunks: Optional[Iterable[ActivityTable]] = None,
    ) -> CorrelationResult:
        """Correlate a (finite) trace incrementally."""
        for _cag in self.correlate_iter(activities, chunks=chunks):
            pass
        assert self.last_engine is not None
        return self.last_engine.result()

    def correlate_iter(
        self,
        activities: Union[Iterable[Activity], ActivityTable] = (),
        engine: Optional[IncrementalEngine] = None,
        *,
        chunks: Optional[Iterable[ActivityTable]] = None,
    ) -> Iterator[CAG]:
        """Yield finished CAGs as the stream is consumed.

        The engine driven here is left on :attr:`last_engine`; read
        ``last_engine.result()`` after the iterator is exhausted (or pass
        your own ``engine``, which disables ``resume_from`` handling).
        """
        if chunks is None:
            chunks = arrival_chunks(activities, self.chunk_size)
        skip = 0
        if engine is None:
            if self.resume_from is not None:
                engine, skip = self._resume_engine()
            else:
                decisions = None
                if self.sampling is not None and self.sampling.needs_prepass:
                    # Freeze the budget policy's decisions from the whole
                    # trace -- the same pre-pass the batch and sharded
                    # drivers run, so the admitted subset is
                    # backend-independent.
                    ordered = ActivityTable()
                    for chunk in chunks:
                        ordered.concat(chunk)
                    decisions = self.sampling.freeze(ordered)
                    chunks = iter_chunks(ordered, self.chunk_size)
                engine = self.make_engine(decisions)
        self.last_engine = engine
        every = self.checkpoint_every
        # Cadence in *ingested activities*, written at chunk boundaries:
        # the next threshold is the first multiple of ``every`` past what
        # the engine has already seen (which on resume is mid-trace).
        next_checkpoint = (
            (engine.total_ingested // every + 1) * every if every else None
        )
        to_skip = skip
        for chunk in chunks:
            if to_skip:
                # Resuming: the checkpointed engine has seen this prefix.
                dropped = min(to_skip, len(chunk))
                to_skip -= dropped
                chunk = chunk[dropped:]
                if not chunk:
                    continue
            yield from engine.ingest(chunk)
            if next_checkpoint is not None and engine.total_ingested >= next_checkpoint:
                self._write_checkpoint(engine)
                next_checkpoint = (engine.total_ingested // every + 1) * every
        if to_skip:
            raise ValueError(
                f"checkpoint has ingested {skip} activities "
                f"but the trace only has {skip - to_skip}"
            )
        yield from engine.flush()

    # -- checkpoint plumbing -------------------------------------------------

    def _config_fingerprint(self) -> dict:
        """The knobs that must match between a checkpoint and a resume."""
        return {
            "window": self.window,
            "horizon": self.horizon,
            "skew_bound": self.skew_bound,
            "chunk_size": self.chunk_size,
            "sampling": self.sampling,
        }

    def _write_checkpoint(self, engine: IncrementalEngine) -> None:
        assert self.checkpoint_path is not None
        save_checkpoint(
            self.checkpoint_path,
            engine,
            ingested_count=engine.total_ingested,
            config=self._config_fingerprint(),
        )

    def _resume_engine(self):
        """The checkpointed engine and how many activities it has seen."""
        assert self.resume_from is not None
        checkpoint = load_checkpoint(self.resume_from)
        expected = self._config_fingerprint()
        mismatched = sorted(
            key
            for key in expected
            if checkpoint.config.get(key) != expected[key]
        )
        if mismatched:
            raise ValueError(
                "checkpoint configuration mismatch on "
                + ", ".join(
                    f"{key} (checkpoint {checkpoint.config.get(key)!r} != "
                    f"current {expected[key]!r})"
                    for key in mismatched
                )
            )
        return checkpoint.engine, checkpoint.ingested_count
