"""Streaming correlation subsystem: online, bounded-memory, partitionable.

The batch pipeline (``repro.core``) reads a complete trace and correlates
it once -- one sealed run of the incremental engine.  This package holds
what the online and sharded backends of :class:`repro.pipeline.BackendSpec`
drive that same engine with, the seam every scaling direction (async
ingestion, multi-backend storage, distributed sharding) builds on:

==============================  ==================================================
:class:`IncrementalEngine`      push-interface engine (defined in
                                ``repro.core.correlator``): ingest activity
                                chunks, emit each CAG the moment its END
                                correlates, evict stale state past a
                                watermark horizon
checkpoints                     :func:`save_checkpoint` /
                                :func:`load_checkpoint`: the engine pickled at
                                a chunk boundary by the streaming backend, and
                                revived to resume past the prefix it has seen
:func:`partition_components`    split a trace into causally-closed
                                components (union-find over context and
                                connection keys); the ``sharded`` backend
                                correlates each alone and merges: an
                                equivalence oracle whose output is identical
                                to batch
:class:`FileTailSource`         ``tail -f``-style log file reader, one
                                ``chunk_bytes`` block at a time
:class:`IteratorSource`         chunked reader over any line iterable
:class:`ActivityStream`         raw line -> typed activity classification step
==============================  ==================================================

Equivalence guarantee: with eviction disabled (``horizon=None``) the
streaming path produces exactly the same finished CAGs -- same edge
multisets, same ranked latency report -- as the batch path; with a finite
horizon, only requests idle longer than the horizon can differ.  See
``docs/architecture.md`` and ``tests/test_stream.py``.
"""

from ..core.correlator import IncrementalEngine
from .checkpoint import StreamCheckpoint, load_checkpoint, save_checkpoint
from .reader import (
    ActivityStream,
    FileTailSource,
    IteratorSource,
    arrival_chunks,
    iter_chunks,
)
from .sharded import partition_components

__all__ = [
    "ActivityStream",
    "FileTailSource",
    "IncrementalEngine",
    "IteratorSource",
    "StreamCheckpoint",
    "arrival_chunks",
    "iter_chunks",
    "load_checkpoint",
    "partition_components",
    "save_checkpoint",
]
