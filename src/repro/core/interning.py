"""Key interning and columnar activity storage (the hot-path substrate).

The correlation algorithm never inspects the *content* of an identity
key: the ranker's future-send registry, the engine's ``cmap``/``mmap``
and the CAG bookkeeping only ever hash keys and compare them for
equality.  That makes the keys themselves replaceable: this module
interns every distinct context 4-tuple, connection 4-tuple and node
hostname into a dense ``int`` the first time it is seen, and the whole
hot path -- ranker sweeps, index-map lookups, buffered-send indexing,
tombstone purges -- runs on those ints end-to-end.  Interning is
injective and first-seen ordered, so every keyed structure behaves
exactly as it did with tuple keys (same membership, same insertion
order, same iteration order); only the hash and comparison cost drops.

Two deliberate boundaries keep the refactor byte-identical:

* **Digests and sampling hash the original identity.**  Interned ids
  are an artefact of one process's ingest order; anything that leaves
  the process (golden digests, the root-hash sampling decision) must
  resolve back to the string/tuple identity first.  See
  ``repro.sampling.sampler.root_key`` and
  ``repro.pipeline.equivalence._fingerprint``.
* **Process-pool workers rebuild the identical key space.**  A worker
  that receives pickled activities receives their interned ints
  verbatim (slots dataclasses do not re-run ``__post_init__`` on
  unpickle), so the parent ships an interner :meth:`~KeyInterner.
  snapshot` alongside each shard and the worker :meth:`~KeyInterner.
  install`\\ s it before correlating.

:class:`ActivityTable` is the companion columnar store: parallel
arrays of type / timestamp / interned keys / size, with ``Activity``
objects materialised lazily (and cached) only where the object API is
required -- the CAG/export boundary.  The table is iterable, so every
correlator entry point accepts it wherever a plain activity list is
accepted today.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Raw context identity: (hostname, program, pid, tid).
ContextTuple = Tuple[str, str, int, int]
#: Raw directional connection identity: (src_ip, src_port, dst_ip, dst_port).
MessageTuple = Tuple[str, int, str, int]


class KeyInterner:
    """Bidirectional dense-int interner for the three identity key kinds.

    Ids are assigned first-seen, per kind, starting at 0.  Lookups on
    the hot path go through the plain dicts (``_context_ids`` etc.)
    without taking the lock -- dict reads are atomic under the GIL and
    the maps are append-only -- while every miss takes the lock, so
    concurrent ingest threads agree on one id per key.
    """

    __slots__ = (
        "_lock",
        "_context_ids",
        "_context_tuples",
        "_contexts",
        "_message_ids",
        "_message_tuples",
        "_node_ids",
        "_nodes",
        "_component_ids",
        "_context_components",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._context_ids: Dict[ContextTuple, int] = {}
        self._context_tuples: List[ContextTuple] = []
        # Canonical ContextId object per id, materialised lazily when the
        # id was interned from a raw tuple (snapshot install, table load).
        self._contexts: List[object] = []
        self._message_ids: Dict[MessageTuple, int] = {}
        self._message_tuples: List[MessageTuple] = []
        self._node_ids: Dict[str, int] = {}
        self._nodes: List[str] = []
        # Component ids: derived lazily from the context tables, so they
        # are a pure function of ``(hostname, program)`` first-use order,
        # stay valid across ``install`` (which only appends contexts) and
        # are never part of a snapshot.
        self._component_ids: Dict[Tuple[str, str], int] = {}
        self._context_components: Dict[int, int] = {}

    # -- interning ----------------------------------------------------------

    def intern_context(self, context) -> int:
        """Intern a :class:`~repro.core.activity.ContextId`, keeping it as
        the canonical object for :meth:`resolve_context`."""
        key = context.as_tuple()
        with self._lock:
            cid = self._context_ids.get(key)
            if cid is None:
                cid = len(self._context_tuples)
                self._context_tuples.append(key)
                self._contexts.append(context)
                self._context_ids[key] = cid
            elif self._contexts[cid] is None:
                self._contexts[cid] = context
        return cid

    def intern_context_key(self, key: ContextTuple) -> int:
        """Intern a raw context 4-tuple (no canonical object yet)."""
        with self._lock:
            cid = self._context_ids.get(key)
            if cid is None:
                cid = len(self._context_tuples)
                self._context_tuples.append(key)
                self._contexts.append(None)
                self._context_ids[key] = cid
        return cid

    def intern_message_key(self, key: MessageTuple) -> int:
        """Intern a directional connection 4-tuple."""
        with self._lock:
            mid = self._message_ids.get(key)
            if mid is None:
                mid = len(self._message_tuples)
                self._message_tuples.append(key)
                self._message_ids[key] = mid
        return mid

    def intern_node(self, hostname: str) -> int:
        """Intern a node hostname."""
        with self._lock:
            nid = self._node_ids.get(hostname)
            if nid is None:
                nid = len(self._nodes)
                self._nodes.append(hostname)
                self._node_ids[hostname] = nid
        return nid

    def component_of(self, cid: int) -> int:
        """Dense id of the ``(hostname, program)`` component an interned
        context belongs to -- the identity pattern isomorphism compares
        (Section 3.2 ignores pid and tid).  Hot callers read
        ``_context_components`` directly and come here on a miss."""
        with self._lock:
            component = self._context_components.get(cid)
            if component is None:
                hostname, program, _pid, _tid = self._context_tuples[cid]
                component = self._component_ids.setdefault(
                    (hostname, program), len(self._component_ids)
                )
                self._context_components[cid] = component
        return component

    # -- resolving ----------------------------------------------------------

    def resolve_context(self, cid: int):
        """Return the canonical :class:`ContextId` for an interned id."""
        context = self._contexts[cid]
        if context is None:
            from .activity import ContextId

            context = ContextId(*self._context_tuples[cid])
            self._contexts[cid] = context
        return context

    def resolve_context_key(self, cid: int) -> ContextTuple:
        """Return the raw context 4-tuple for an interned id."""
        return self._context_tuples[cid]

    def resolve_message_key(self, mid: int) -> MessageTuple:
        """Return the directional connection 4-tuple for an interned id."""
        return self._message_tuples[mid]

    def resolve_node(self, nid: int) -> str:
        """Return the hostname for an interned node id."""
        return self._nodes[nid]

    # -- introspection --------------------------------------------------------

    def sizes(self) -> Dict[str, int]:
        """Distinct key counts per kind (monitoring / tests)."""
        return {
            "contexts": len(self._context_tuples),
            "messages": len(self._message_tuples),
            "nodes": len(self._nodes),
        }

    # -- cross-process key-space transfer ------------------------------------

    def snapshot(self) -> Dict[str, list]:
        """Picklable copy of the id assignment (raw tuples only).

        Ship this to process-pool workers alongside their shard so
        :meth:`install` can rebuild the identical key space before any
        interned activity is touched.
        """
        with self._lock:
            return {
                "contexts": list(self._context_tuples),
                "messages": list(self._message_tuples),
                "nodes": list(self._nodes),
            }

    def install(self, snapshot: Dict[str, list]) -> None:
        """Adopt a snapshot's id assignment, in place and append-only.

        The existing assignment must be a prefix of the snapshot's (the
        fork-start case, where the child inherits the parent's interner
        wholesale, degenerates to a no-op).  The maps are extended in
        place -- never rebound -- because hot-path modules hold direct
        references to them.
        """
        with self._lock:
            self._install_keys(
                snapshot["contexts"],
                self._context_ids,
                self._context_tuples,
                "context",
                objects=self._contexts,
            )
            self._install_keys(
                snapshot["messages"], self._message_ids, self._message_tuples, "message"
            )
            self._install_keys(snapshot["nodes"], self._node_ids, self._nodes, "node")

    @staticmethod
    def _install_keys(keys, ids, ordered, kind, objects=None):
        have = len(ordered)
        if ordered and ordered[: min(have, len(keys))] != keys[: min(have, len(keys))]:
            raise ValueError(
                f"interner snapshot conflicts with existing {kind} id assignment"
            )
        for key in keys[have:]:
            ids[key] = len(ordered)
            ordered.append(key)
            if objects is not None:
                objects.append(None)


#: Process-wide interner.  ``Activity.__post_init__`` interns through this
#: instance, so every activity constructed in one process shares one key
#: space.  It grows monotonically with the number of *distinct* keys --
#: bounded by deployment size, not trace length.
INTERNER = KeyInterner()


class ActivityTable:
    """Columnar activity storage: struct-packed parallel arrays.

    One row per activity, held as :mod:`array` columns (about 57 bytes a
    row against roughly 480 bytes for the ``Activity`` object graph):

    ========== ===== ==============================================
    column     type  content
    ========== ===== ==============================================
    type       b     :class:`ActivityType` value / Rule 2 priority
    timestamp  d     local timestamp (seconds)
    ckey       q     interned context key
    mkey       q     interned message (connection) key
    nkey       q     interned node key
    size       q     logged / merged byte count
    request_id q     ground-truth request id (-1 = ``None``)
    seq        q     global creation sequence number
    ========== ===== ==============================================

    ``Activity`` objects rematerialise lazily through :meth:`activity`
    (cached per row), which is the CAG/export boundary: the engine
    mutates ``size`` in place while merging segmented parts, so each
    full correlation pass must consume **fresh** rows --
    :meth:`iter_fresh` materialises without touching the cache, exactly
    like ``MemorySource`` re-clones per pass.
    """

    __slots__ = (
        "_types",
        "_timestamps",
        "_ckeys",
        "_mkeys",
        "_nkeys",
        "_sizes",
        "_request_ids",
        "_seqs",
        "_cache",
        "interner",
    )

    def __init__(self, interner: Optional[KeyInterner] = None) -> None:
        self.interner = INTERNER if interner is None else interner
        self._types = array("b")
        self._timestamps = array("d")
        self._ckeys = array("q")
        self._mkeys = array("q")
        self._nkeys = array("q")
        self._sizes = array("q")
        self._request_ids = array("q")
        self._seqs = array("q")
        self._cache: Dict[int, object] = {}

    # -- building -------------------------------------------------------------

    @classmethod
    def from_activities(cls, activities: Iterable, interner=None) -> "ActivityTable":
        """Pack an activity iterable into columns (keys already interned)."""
        table = cls(interner=interner)
        table.extend(activities)
        return table

    def append(self, activity) -> None:
        """Append one activity's row (its interned keys are reused as-is)."""
        self._types.append(int(activity.type))
        self._timestamps.append(activity.timestamp)
        self._ckeys.append(activity.context_key)
        self._mkeys.append(activity.message_key)
        self._nkeys.append(activity.node_key)
        self._sizes.append(activity.size)
        request_id = activity.request_id
        self._request_ids.append(-1 if request_id is None else request_id)
        self._seqs.append(activity.seq)

    def extend(self, activities: Iterable) -> None:
        for activity in activities:
            self.append(activity)

    # -- row access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._types)

    def timestamp(self, row: int) -> float:
        return self._timestamps[row]

    def context_key(self, row: int) -> int:
        return self._ckeys[row]

    def message_key(self, row: int) -> int:
        return self._mkeys[row]

    def node_key(self, row: int) -> int:
        return self._nkeys[row]

    def activity(self, row: int):
        """Materialise (and cache) the ``Activity`` view of one row."""
        cached = self._cache.get(row)
        if cached is None:
            cached = self._materialise(row)
            self._cache[row] = cached
        return cached

    def _materialise(self, row: int):
        from .activity import Activity, ActivityType, MessageId

        interner = self.interner
        connection = interner.resolve_message_key(self._mkeys[row])
        request_id = self._request_ids[row]
        size = self._sizes[row]
        return Activity(
            type=ActivityType(self._types[row]),
            timestamp=self._timestamps[row],
            context=interner.resolve_context(self._ckeys[row]),
            message=MessageId(*connection, size),
            request_id=None if request_id < 0 else request_id,
            seq=self._seqs[row],
            size=size,
        )

    def __iter__(self) -> Iterator:
        """Iterate cached ``Activity`` views (object-API boundary)."""
        for row in range(len(self._types)):
            yield self.activity(row)

    def iter_fresh(self) -> Iterator:
        """Materialise fresh, uncached rows -- one correlation pass's worth.

        The engine mutates ``size`` during n-to-n merging, so feeding a
        correlator cached rows would poison later passes; sources built
        on a table hand out fresh rows per pass instead.
        """
        for row in range(len(self._types)):
            yield self._materialise(row)

    # -- accounting -----------------------------------------------------------

    def nbytes(self) -> int:
        """Byte size of the packed columns (excludes cache and interner)."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self._types,
                self._timestamps,
                self._ckeys,
                self._mkeys,
                self._nkeys,
                self._sizes,
                self._request_ids,
                self._seqs,
            )
        )
