"""Chunked log ingestion for the streaming pipeline.

The batch path reads whole log files into memory before correlating.
Online tracing instead consumes logs *as they grow*; this module provides
the ingestion side of that pipeline:

* :func:`iter_chunks` -- batch any iterable into fixed-size lists (a
  list or an ``ActivityTable`` into slices of itself);
* :func:`arrival_chunks` -- an in-memory trace in arrival order, a chunk
  at a time: the one whole-trace sort on the streaming path, for inputs
  that are already whole in memory;
* :class:`IteratorSource` -- adapt an iterable of TCP_TRACE lines (a
  file object, a socket reader, a generator) into packed chunks;
* :class:`FileTailSource` -- follow a growing log file on disk,
  one ``chunk_bytes`` read at a time, remembering the read offset and
  reassembling lines across read boundaries (``tail -f`` semantics,
  without inotify dependencies);
* :class:`ActivityStream` -- the shared raw-line -> packed-row step
  (parse + BEGIN/END classification + attribute noise filter), built on
  :meth:`repro.core.log_format.ActivityClassifier.pack_lines`.

Every source yields :class:`~repro.core.interning.ActivityTable` chunks
ready to be pushed into :class:`repro.stream.IncrementalEngine.ingest`.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, TypeVar, Union

from ..core.activity import Activity
from ..core.interning import ActivityTable, as_table
from ..core.log_format import ActivityClassifier, FrontendSpec, LineAssembler

T = TypeVar("T")


def iter_chunks(items: Iterable[T], chunk_size: int) -> Iterator[List[T]]:
    """Yield successive lists of at most ``chunk_size`` items -- slices,
    when ``items`` is a list or an ``ActivityTable``."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if isinstance(items, (list, ActivityTable)):
        for start in range(0, len(items), chunk_size):
            yield items[start : start + chunk_size]
        return
    chunk: List[T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def arrival_chunks(
    activities: Union[Iterable[Activity], ActivityTable], chunk_size: int
) -> Iterator[ActivityTable]:
    """An in-memory trace (packed rows, or objects packed here) in
    *arrival order*, ``chunk_size`` rows at a time.

    Arrival order is global timestamp order with ties in creation order
    (:data:`~repro.core.activity.sort_key`): what a merged online feed of
    the per-node logs delivers.  Per-node order is preserved, which is
    all the incremental engine requires.  This sorts the whole trace, so
    it is for traces that are whole already -- the in-memory pipeline
    sources and a raw list handed to ``StreamingCorrelator.correlate``;
    log files produce the same chunks incrementally
    (:meth:`repro.pipeline.LogSource.chunks`).
    """
    return iter_chunks(as_table(activities).ordered(), chunk_size)


class ActivityStream:
    """Convert raw TCP_TRACE lines into typed activities, incrementally.

    A thin stateful wrapper over :class:`ActivityClassifier` in its
    tolerant mode: malformed lines are counted, not fatal -- a live log
    being written while we read it can always hand us a torn or corrupt
    line.  Every line handed to :meth:`classify_lines` ends up in exactly
    one place: the returned rows, ``filtered_records``,
    ``malformed_lines`` or ``skipped_lines``.
    """

    def __init__(
        self,
        frontends: Sequence[FrontendSpec],
        ignore_programs: Optional[set] = None,
        ignore_ports: Optional[set] = None,
        ignore_ips: Optional[set] = None,
    ) -> None:
        self.classifier = ActivityClassifier(
            frontends=list(frontends),
            ignore_programs=set(ignore_programs or ()),
            ignore_ports=set(ignore_ports or ()),
            ignore_ips=set(ignore_ips or ()),
        )

    @property
    def filtered_records(self) -> int:
        """Records dropped by the attribute-based noise filter."""
        return self.classifier.filtered_count

    @property
    def malformed_lines(self) -> int:
        """Lines that could not be parsed."""
        return self.classifier.malformed_count

    @property
    def skipped_lines(self) -> int:
        """Blank and ``#`` comment lines."""
        return self.classifier.skipped_count

    def classify_lines(self, lines: Iterable[str]) -> ActivityTable:
        """Parse and classify a batch of lines into packed rows (see
        :meth:`repro.core.log_format.ActivityClassifier.pack_lines`)."""
        return self.classifier.pack_lines(lines)


class IteratorSource:
    """Chunked activity source over any iterable of log lines."""

    def __init__(
        self,
        lines: Iterable[str],
        stream: ActivityStream,
        chunk_size: int = 256,
    ) -> None:
        self._lines = lines
        self._stream = stream
        self._chunk_size = chunk_size

    def __iter__(self) -> Iterator[ActivityTable]:
        for chunk in iter_chunks(self._lines, self._chunk_size):
            rows = self._stream.classify_lines(chunk)
            if len(rows):
                yield rows


class FileTailSource:
    """Incrementally read a (possibly still growing) TCP_TRACE log file.

    :meth:`blocks` is the one read loop: it reads whatever bytes were
    appended since the last call, ``chunk_bytes`` at a time, and yields
    the lines each read completed; a trailing partial line stays buffered
    in a :class:`LineAssembler` until its newline arrives.  ``poll()`` is
    those blocks concatenated; ``drain()`` additionally flushes the final
    unterminated line -- call it once the writer is known to be done.

    The source is deliberately dependency-free (no inotify): the caller
    decides the polling cadence, which keeps it usable inside simulations
    and tests as well as against real files.
    """

    def __init__(self, path: str, chunk_bytes: int = 64 * 1024) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.path = path
        self.chunk_bytes = chunk_bytes
        self.offset = 0  # byte offset into the file
        self._assembler = LineAssembler()
        self._decoder = self._new_decoder()

    @staticmethod
    def _new_decoder():
        # Incremental decoder: a read that ends mid multi-byte UTF-8
        # sequence keeps the partial bytes buffered instead of emitting
        # replacement characters and corrupting the record.
        import codecs

        return codecs.getincrementaldecoder("utf-8")("replace")

    def blocks(self, final: bool = False) -> Iterator[List[str]]:
        """Read newly-appended data; yield each read's completed lines.

        A consumer that stops between blocks holds one block of text, not
        the file: ``offset`` has advanced past exactly what was yielded
        (plus the partial line the assembler keeps).  With ``final``, the
        buffered partial line is yielded last -- end of stream.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = self.offset  # no such file (yet): nothing new
        if size < self.offset:
            # The file shrank: it was rotated/truncated under us
            # (copytruncate).  Restart from the top; the partial line and
            # partial character buffered from the old incarnation are
            # gone with it.
            self.offset = 0
            self._assembler = LineAssembler()
            self._decoder = self._new_decoder()
        if size > self.offset:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                while True:
                    chunk = handle.read(self.chunk_bytes)
                    if not chunk:
                        break
                    self.offset += len(chunk)
                    lines = self._assembler.feed(self._decoder.decode(chunk))
                    if lines:
                        yield lines
        if final:
            lines = self._assembler.feed(self._decoder.decode(b"", final=True))
            lines.extend(self._assembler.flush())
            if lines:
                yield lines

    def poll(self) -> List[str]:
        """Read newly-appended data; return the newly-completed lines."""
        return list(chain.from_iterable(self.blocks()))

    def drain(self) -> List[str]:
        """Final poll plus the buffered partial line (end of stream)."""
        return list(chain.from_iterable(self.blocks(final=True)))
