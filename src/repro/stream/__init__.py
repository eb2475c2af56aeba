"""Streaming correlation subsystem: online, bounded-memory, shardable.

The batch pipeline (``repro.core``) reads a complete trace and correlates
it once -- one sealed run of the incremental engine.  This package holds
the online drivers of that same engine, the seam every scaling direction
(async ingestion, multi-backend storage, distributed sharding) builds on:

==========================  ==================================================
:class:`IncrementalEngine`  push-interface engine (defined in
                            ``repro.core.correlator``): ingest activity
                            chunks, emit each CAG the moment its END
                            correlates, evict stale state past a
                            watermark horizon
:class:`StreamingCorrelator`  one-shot streaming drive with the same
                            ``correlate()`` shape as the batch Correlator
:class:`ShardedCorrelator`  partition a trace into causally-closed shards
                            (union-find over context/connection keys,
                            LPT-packed by activity count), correlate each
                            alone and merge: a tested equivalence backend
                            whose output is identical to batch
:class:`FileTailSource`     ``tail -f``-style log file reader, one
                            ``chunk_bytes`` block at a time
:class:`IteratorSource`     chunked reader over any line iterable
:class:`ActivityStream`     raw line -> typed activity classification step
==========================  ==================================================

Equivalence guarantee: with eviction disabled (``horizon=None``) the
streaming path produces exactly the same finished CAGs -- same edge
multisets, same ranked latency report -- as the batch path; with a finite
horizon, only requests idle longer than the horizon can differ.  See
``docs/architecture.md`` and ``tests/test_stream.py``.
"""

from ..core.correlator import IncrementalEngine
from .checkpoint import StreamCheckpoint, load_checkpoint, save_checkpoint
from .incremental import StreamingCorrelator
from .reader import (
    ActivityStream,
    FileTailSource,
    IteratorSource,
    arrival_chunks,
    iter_chunks,
)
from .sharded import (
    MergeTree,
    ShardedCorrelator,
    canonical_part,
    merge_engine_stats,
    merge_pair,
    merge_ranker_stats,
    merge_results,
    partition_activities,
    partition_components,
)

__all__ = [
    "ActivityStream",
    "FileTailSource",
    "IncrementalEngine",
    "IteratorSource",
    "MergeTree",
    "ShardedCorrelator",
    "StreamCheckpoint",
    "StreamingCorrelator",
    "arrival_chunks",
    "canonical_part",
    "iter_chunks",
    "load_checkpoint",
    "merge_engine_stats",
    "merge_pair",
    "merge_ranker_stats",
    "merge_results",
    "partition_activities",
    "partition_components",
    "save_checkpoint",
]
