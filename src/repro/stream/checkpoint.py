"""Periodic engine checkpoints: crash-resumable streaming correlation.

A days-long streaming run that dies should not have to replay the whole
trace.  The streaming engine's live state is small and self-contained --
the connection/message index maps, the open (unfinished) CAGs, the
ranker's reorder buffers, and the interner tables that give every key its
integer id -- so the whole of it pickles into a compact blob.
:class:`StreamingCorrelator` writes one at a configurable candidate
cadence, and ``repro stream --resume <ckpt>`` restarts mid-trace with a
final output digest-identical to the uninterrupted run.

Checkpoint file format (version 6): a single pickled dict with

``magic`` / ``version``
    Sanity markers; mismatches fail fast with a clear error instead of
    unpickling garbage.  The version is checked *before* the engine
    blob is touched, so a file from an older layout (version 1 pickled
    class paths that no longer exist, version 2 pickled CAGs as edge
    objects rather than position columns, version 3 pickled the ranker's
    window as per-node deques rather than cursors into its sources,
    version 4 pickled each source's rows as an activity list with two
    shadow columns rather than one ``ActivityTable``, version 5 pickled
    that table with an object column beside the packed ones) is refused
    with the same :class:`ValueError` rather than an import error, a
    ``KeyError`` or (version 5: the table has no object slot any more)
    an ``AttributeError`` from inside ``pickle`` -- or, for versions 3
    and 4, a ranker that revives without complaint and fails at its
    first ``rank()``.
``ingested_count``
    How many activities the engine had ingested when the snapshot was
    taken.  On resume the driver skips exactly this prefix of the
    (deterministically re-sorted) trace.
``config``
    The streaming knobs the snapshot was taken under (window, horizon,
    skew bound, chunk size, sampling).  Resuming with different
    knobs would silently change the output, so the loader exposes the
    dict and the driver refuses mismatches.
``interner``
    :meth:`repro.core.interning.KeyInterner.snapshot` of the global
    interner -- the id assignments the pickled engine state refers to.
    It is installed *before* the engine blob is unpickled so the revived
    keys land in a compatible universe.
``engine_blob`` / ``engine_sha256``
    The pickled :class:`~repro.core.correlator.IncrementalEngine` and
    its checksum.  The checksum turns a torn or corrupted file into a
    loud error rather than a subtly wrong correlation.

Writes are atomic (temp file + ``os.replace`` after fsync), so a crash
*during* checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict

from ..core.interning import INTERNER

MAGIC = "precisetracer-stream-checkpoint"
VERSION = 6


@dataclass
class StreamCheckpoint:
    """A loaded checkpoint: the revived engine plus its provenance."""

    ingested_count: int
    config: Dict[str, Any]
    engine: Any  # IncrementalEngine; typed loosely to avoid an import cycle


def save_checkpoint(
    path: str,
    engine: Any,
    ingested_count: int,
    config: Dict[str, Any],
) -> None:
    """Atomically write ``engine`` state to ``path``.

    The interner snapshot is taken at the same moment as the engine
    pickle, so the blob's integer key ids are guaranteed resolvable on
    load.
    """
    engine_blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    payload = {
        "magic": MAGIC,
        "version": VERSION,
        "ingested_count": int(ingested_count),
        "config": dict(config),
        "interner": INTERNER.snapshot(),
        "engine_blob": engine_blob,
        "engine_sha256": hashlib.sha256(engine_blob).hexdigest(),
    }
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    # Persist the rename too, so the checkpoint survives power loss, not
    # just process death.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_checkpoint(path: str) -> StreamCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Installs the snapshot's interner state into the process-global
    interner *before* unpickling the engine; raises :class:`ValueError`
    on any structural problem (wrong magic, unsupported version,
    checksum mismatch, incompatible interner state).
    """
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise ValueError(f"{path} is not a PreciseTracer stream checkpoint")
    version = payload.get("version")
    if version != VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} (expected {VERSION})"
        )
    engine_blob = payload["engine_blob"]
    digest = hashlib.sha256(engine_blob).hexdigest()
    if digest != payload["engine_sha256"]:
        raise ValueError(f"checkpoint {path} is corrupted (engine checksum mismatch)")
    # Key ids first: the engine blob references interned keys by id.
    INTERNER.install(payload["interner"])
    engine = pickle.loads(engine_blob)
    return StreamCheckpoint(
        ingested_count=payload["ingested_count"],
        config=dict(payload["config"]),
        engine=engine,
    )
