"""Periodic engine checkpoints: crash-resumable streaming correlation.

A days-long streaming run that dies should not have to replay the whole
trace.  The streaming engine's live state is small and self-contained --
the connection/message index maps, the open (unfinished) CAGs, the
ranker's reorder buffers, and the run's key space that gives every key
its integer id -- so the whole of it pickles into a compact blob.  The
streaming backend (:class:`~repro.pipeline.BackendSpec` with
``checkpoint_path`` + ``checkpoint_every``) writes one at the first chunk
boundary at or past every ``checkpoint_every`` ingested activities, and
``repro stream --resume <ckpt>`` (``resume_from``) restarts mid-trace
with a final output digest-identical to the uninterrupted run:
:func:`resume_checkpoint` revives the engine and skips the prefix of the
(deterministic) arrival order it has already seen.

Checkpoint file format (version 10): a single pickled dict with

``magic`` / ``version``
    Sanity markers; mismatches fail fast with a clear error instead of
    unpickling garbage.  The version is checked *before* the engine
    blob is touched, so a file from an older layout (version 1 pickled
    class paths that no longer exist, version 2 pickled CAGs as edge
    objects rather than position columns, version 3 pickled the ranker's
    window as per-node deques rather than cursors into its sources,
    version 4 pickled each source's rows as an activity list with two
    shadow columns rather than one ``ActivityTable``, version 5 pickled
    that table with an object column beside the packed ones, version 6
    stored a snapshot of a process-wide interner beside an engine whose
    tables and CAGs carry no key space, version 7 pickled every finished
    CAG as a list of vertex objects rather than packed vertex rows plus
    its root and END, version 8 pickled the engine's index maps as
    wrapper objects rather than plain dicts, version 9 may hold the
    ranker's head columns as ``array('d')``/``array('q')`` rather than
    lists) is refused with the same :class:`ValueError` rather than an
    import error, a ``KeyError``, an ``AttributeError`` or a
    ``TypeError`` (version 3: the ranker binds its selector over dicts
    it never had; version 5: the table has no object slot any more;
    version 6: its tables and CAGs lack the key space; version 7: its
    CAGs lack the rows entry; version 8: the wrappers' module is gone;
    version 9: the compiled kernel binds lists only) from inside
    ``pickle`` or at first use -- or, for version 4, a source that
    revives without complaint and fails at its first use.
``ingested_count``
    How many activities the engine had ingested when the snapshot was
    taken.  On resume the driver skips exactly this prefix of the
    (deterministically re-sorted) trace.
``config``
    The streaming knobs the snapshot was taken under
    (:data:`FINGERPRINT_KEYS`: window, horizon, skew bound, chunk size,
    sampling).  Resuming with different knobs would silently change the
    output, so :func:`resume_checkpoint` refuses mismatches.
``engine_blob`` / ``engine_sha256``
    The pickled :class:`~repro.core.correlator.IncrementalEngine` and
    its checksum.  The engine carries its
    :class:`~repro.core.interning.KeySpace` (its ranker, tables and CAGs
    all reference the one object), so the ids in the blob mean the same
    after a resume in any process; the ranker re-keys what a fresh
    source feeds it into that space.  The checksum turns a torn or corrupted file into a
    loud error rather than a subtly wrong correlation.

Writes are atomic (temp file + ``os.replace`` after fsync), so a crash
*during* checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Tuple

from ..core.interning import ActivityTable

MAGIC = "precisetracer-stream-checkpoint"
VERSION = 10

#: The streaming knobs a checkpoint records; a resume must match each one.
FINGERPRINT_KEYS = ("window", "horizon", "skew_bound", "chunk_size", "sampling")


def config_fingerprint(spec: Any) -> Dict[str, Any]:
    """The :data:`FINGERPRINT_KEYS` of ``spec`` (a
    :class:`~repro.pipeline.BackendSpec`), as a checkpoint records them."""
    return {key: getattr(spec, key) for key in FINGERPRINT_KEYS}


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
    """Atomically write ``engine`` state to ``path``."""
    engine_blob = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    payload = {
        "magic": MAGIC,
        "version": VERSION,
        "ingested_count": int(ingested_count),
        "config": dict(config),
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

    Raises :class:`ValueError` on any structural problem (wrong magic,
    unsupported version, checksum mismatch), before the engine blob is
    unpickled.
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
    engine = pickle.loads(engine_blob)
    return StreamCheckpoint(
        ingested_count=payload["ingested_count"],
        config=dict(payload["config"]),
        engine=engine,
    )


def resume_checkpoint(
    path: str, config: Dict[str, Any], chunks: Iterable[ActivityTable]
) -> Tuple[Any, Iterator[ActivityTable]]:
    """The engine checkpointed at ``path`` and what of ``chunks`` it has
    not ingested yet.

    ``chunks`` is the whole trace in the arrival order the checkpointed
    run read it in; the prefix the engine has already seen is dropped as
    it is consumed.  A ``config`` that differs from the checkpoint's, or
    a trace that ends inside that prefix, raises :class:`ValueError`
    rather than silently producing different output.
    """
    checkpoint = load_checkpoint(path)
    mismatched = [
        f"{key} (checkpoint {checkpoint.config.get(key)!r} != current {config[key]!r})"
        for key in sorted(config)
        if checkpoint.config.get(key) != config[key]
    ]
    if mismatched:
        raise ValueError("checkpoint configuration mismatch on " + ", ".join(mismatched))
    return checkpoint.engine, _skip_rows(chunks, checkpoint.ingested_count)


def _skip_rows(chunks: Iterable[ActivityTable], skip: int) -> Iterator[ActivityTable]:
    """``chunks`` without their first ``skip`` rows."""
    to_skip = skip
    for chunk in chunks:
        if to_skip:
            dropped = min(to_skip, len(chunk))
            to_skip -= dropped
            chunk = chunk[dropped:]
            if not chunk:
                continue
        yield chunk
    if to_skip:
        raise ValueError(
            f"checkpoint has ingested {skip} activities but the trace only has {skip - to_skip}"
        )
