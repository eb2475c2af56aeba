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
* **A resumed checkpoint rebuilds the identical key space.**  A
  checkpoint pickles engine state whose activities carry interned keys
  verbatim, so it stores an interner :meth:`~KeyInterner.snapshot`
  beside the engine, and a resume -- possibly in a new process --
  :meth:`~KeyInterner.install`\\ s it before the engine is unpickled.

:class:`ActivityTable` is the companion columnar store, and the one
form a trace takes on its way to the ranker: parallel columns of type /
timestamp / interned keys / request id / ``seq`` plus a reference to the
row's shared ``MessageId``.  The log front end writes it
(``ActivityClassifier.pack_lines``), an entry point handed objects packs
them once (``ActivityTable.from_activities``), each ranker source keeps
its node's rows in one, and an ``Activity`` is built from a row only
when something needs the object -- the ranker, at the moment it
delivers the row.
"""

from __future__ import annotations

import threading
from array import array
from itertools import islice
from operator import itemgetter, le, lt
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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

        A streaming checkpoint stores this beside the engine so that a
        resume can :meth:`install` the identical key space before any
        interned activity is unpickled.
        """
        with self._lock:
            return {
                "contexts": list(self._context_tuples),
                "messages": list(self._message_tuples),
                "nodes": list(self._nodes),
            }

    def install(self, snapshot: Dict[str, list]) -> None:
        """Adopt a snapshot's id assignment, in place and append-only.

        The existing assignment must be a prefix of the snapshot's (a
        resume in the process that wrote the checkpoint degenerates to a
        no-op; a fresh process starts from an empty one).  The maps are
        extended in place -- never rebound -- because hot-path modules
        hold direct references to them.
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


#: What the request-id column holds for ``request_id=None``: the one
#: int64 no id is allowed to be.  Every other int64 is an id (a log may
#: annotate ``#rid=-3``); an id outside int64 does not fit the column, so
#: a log line carrying one is malformed (``parse_record``) and an object
#: carrying one cannot be packed (``OverflowError``).
NO_REQUEST = -(1 << 63)
#: First int above the column's range: ``NO_REQUEST < id < REQUEST_LIMIT``.
REQUEST_LIMIT = 1 << 63

# Context key -> interned node key, filled on first use.  The interner is
# append-only, so an entry never goes stale.
_NODE_OF: Dict[int, int] = {}


class ActivityTable:
    """Columnar activity storage: struct-packed parallel columns.

    One row per activity, about 49 bytes against roughly 480 for the
    ``Activity`` object graph:

    ========== ===== ==============================================
    column     type  content
    ========== ===== ==============================================
    type       b     :class:`ActivityType` value / Rule 2 priority
    timestamp  d     local timestamp (seconds)
    ckey       list  interned context key
    mkey       list  interned message (connection) key
    request_id q     ground-truth request id (:data:`NO_REQUEST` =
                     ``None``)
    seq        q     global creation sequence number
    message    list  the row's :class:`MessageId`
    ========== ===== ==============================================

    A ``list`` column holds references, 8 bytes a row like a ``q`` one:
    every row of one context shares that context's one key object, every
    row of one connection its key, every row of one connection *and
    size* its ``MessageId`` -- and so do the activities built from them,
    which an ``array`` (a new ``int`` per read) would not give.  The node
    key is a function of the context (its hostname) and
    ``Activity.size`` starts as ``message.size``, so neither has a
    column.  Nothing per row asks the interner anything: the keys are
    stored (they are :data:`INTERNER`'s), and a context key indexes its
    canonical ``ContextId`` list.

    This is the one form in which a trace reaches the ranker.  The log
    front end appends a kept line's fields here instead of building an
    object (:meth:`repro.core.log_format.ActivityClassifier.pack_lines`),
    an entry point handed objects packs their values once
    (:meth:`from_activities`), every
    :class:`~repro.core.ranker.ActivitySource` keeps its node's rows in
    one, and an ``Activity`` is built from a row only when something
    needs the object: the ranker when it *delivers* the row
    (``Ranker.rank``), :meth:`activity` and iteration for a caller that
    asks.  Every build is a new object the table does not remember, so
    the engine -- which mutates the byte counter of the objects it is
    handed -- never reaches a row, and one table backs any number of
    runs.
    """

    __slots__ = (
        "_types",
        "_timestamps",
        "_ckeys",
        "_mkeys",
        "_request_ids",
        "_seqs",
        "_messages",
    )

    def __init__(self) -> None:
        self._types = array("b")
        self._timestamps = array("d")
        self._ckeys: List[int] = []
        self._mkeys: List[int] = []
        self._request_ids = array("q")
        self._seqs = array("q")
        self._messages: List[object] = []

    def _columns(self) -> tuple:
        """Every column, for the operations that move whole rows."""
        return (
            self._types,
            self._timestamps,
            self._ckeys,
            self._mkeys,
            self._request_ids,
            self._seqs,
            self._messages,
        )

    # -- building -------------------------------------------------------------

    @classmethod
    def from_activities(cls, activities: Iterable) -> "ActivityTable":
        """Pack an activity iterable into columns (keys already interned)."""
        table = cls()
        table.extend(activities)
        return table

    def append(self, activity) -> None:
        """Append one activity's row (its interned keys are reused as-is)."""
        self.extend((activity,))

    def extend(self, activities: Iterable) -> None:
        """Append a row per activity, a column at a time.

        The table holds the values, never the object, so it refuses
        (``OverflowError``) a request id no int64 holds, and
        :data:`NO_REQUEST`.  A row's byte count is its ``MessageId``'s:
        what the engine does to an object's ``size`` is not the trace.
        Rows of one connection and size share one ``MessageId``, as the
        log front end's rows do, so the column does not keep every
        object's own copy alive (a simulated trace carries ~5 rows per
        distinct one).
        """
        batch = activities if isinstance(activities, (list, tuple)) else list(activities)
        request_ids = [a.request_id for a in batch]
        if NO_REQUEST in request_ids:
            raise OverflowError(f"request id {NO_REQUEST} is the column's None")
        self._request_ids.fromlist(  # OverflowError past int64
            [NO_REQUEST if rid is None else rid for rid in request_ids]
        )
        self._types.fromlist([a.priority for a in batch])
        self._timestamps.fromlist([a.timestamp for a in batch])
        self._ckeys += [a.context_key for a in batch]
        self._mkeys += [a.message_key for a in batch]
        self._seqs.fromlist([a.seq for a in batch])
        shared: Dict[Tuple[int, int], MessageId] = {}
        self._messages += [
            shared.setdefault((a.message_key, a.message.size), a.message) for a in batch
        ]

    def concat(self, other: "ActivityTable") -> None:
        """Append every row of ``other`` (a block copy per column)."""
        for column, addition in zip(self._columns(), other._columns()):
            column += addition

    def insert_from(self, index: int, other: "ActivityTable", row: int) -> None:
        """Insert row ``row`` of ``other`` in front of row ``index``, every
        column moved together."""
        for column, source in zip(self._columns(), other._columns()):
            column.insert(index, source[row])

    def take(self, rows: Sequence[int]) -> "ActivityTable":
        """A new table holding ``rows`` of this one, in the order given."""
        if not rows:
            return ActivityTable()
        # One C call per column: a streaming chunk is split per node like
        # this on every ingest.  (``itemgetter`` of one index is no tuple.)
        if len(rows) == 1:
            row = rows[0]

            def pick(column):
                return (column[row],)

        else:
            pick = itemgetter(*rows)
        taken = ActivityTable.__new__(ActivityTable)
        taken._types = array("b", pick(self._types))
        taken._timestamps = array("d", pick(self._timestamps))
        taken._ckeys = list(pick(self._ckeys))
        taken._mkeys = list(pick(self._mkeys))
        taken._request_ids = array("q", pick(self._request_ids))
        taken._seqs = array("q", pick(self._seqs))
        taken._messages = list(pick(self._messages))
        return taken

    def __getitem__(self, rows: slice) -> "ActivityTable":
        """A new table holding a slice of the rows (a slice per column)."""
        if not isinstance(rows, slice):
            raise TypeError("an ActivityTable is sliced, not indexed: use activity(row)")
        taken = ActivityTable()
        for column, source in zip(taken._columns(), self._columns()):
            column += source[rows]
        return taken

    def release(self, count: int) -> None:
        """Drop the first ``count`` rows."""
        for column in self._columns():
            del column[:count]

    def rotate(self, first: int, row: int) -> None:
        """Move row ``row`` to position ``first`` (<= ``row``); the rows it
        jumps over keep their order one place back."""
        for column in self._columns():
            column.insert(first, column.pop(row))

    def restamp(self) -> None:
        """Re-draw ``seq`` for every row, in row order.

        For a reader that packs rows in some other order than the one it
        hands them out in (:meth:`repro.pipeline.LogSource.chunks` reads
        its files a block at a time, interleaved): ``seq`` must be arrival
        order, because the rank kernels break equal-priority,
        equal-timestamp ties *between* node heads on it.
        """
        self._seqs[:] = array("q", draw_seqs(len(self._seqs)))

    def ordered(self, by_seq: bool = True) -> "ActivityTable":
        """The rows in per-node sort order (``timestamp``, then ``seq``:
        :data:`repro.core.activity.sort_key`) -- or, without ``by_seq``,
        stable-sorted by timestamp alone.  This table itself when they
        already are, which one or two passes in C decide for a log read
        in order; a sorted copy otherwise."""
        stamps, seqs = self._timestamps, self._seqs
        if len(stamps) < 2:
            return self
        if all(map(le, stamps, islice(stamps, 1, None))) and (
            not by_seq or all(map(lt, seqs, islice(seqs, 1, None)))
        ):
            return self
        if by_seq:
            order = sorted(range(len(stamps)), key=lambda row: (stamps[row], seqs[row]))
        else:
            order = sorted(range(len(stamps)), key=stamps.__getitem__)
        if order == list(range(len(order))):
            return self
        return self.take(order)

    def by_node(self) -> Dict[int, "ActivityTable"]:
        """Interned node key -> that node's rows, in row order; nodes in
        first-seen order.  A table of one node -- what a per-node log
        yields -- is returned as it is, not copied."""
        ckeys = self._ckeys
        for ckey in set(ckeys).difference(_NODE_OF):
            _node_of(ckey)
        nodes = list(map(_NODE_OF.__getitem__, ckeys))
        if not nodes or nodes.count(nodes[0]) == len(nodes):
            return {node: self for node in nodes[:1]}
        rows: Dict[int, List[int]] = {}
        for row, node in enumerate(nodes):
            rows.setdefault(node, []).append(row)
        return {node: self.take(index) for node, index in rows.items()}

    def send_keys(self) -> List[int]:
        """The message key of every send-like row (SEND, END), in row
        order -- what the ranker's undelivered-send registry counts."""
        return [
            key for key, kind in zip(self._mkeys, self._types) if kind == 1 or kind == 2
        ]

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
        return _node_of(self._ckeys[row])

    def activity(self, row: int):
        """Build row ``row``'s ``Activity``: a new object on every call
        (``Ranker.rank`` inlines this for the row it delivers)."""
        ckey = self._ckeys[row]
        request_id = self._request_ids[row]
        return Activity.keyed(
            _TYPES[self._types[row]],
            self._timestamps[row],
            _CONTEXTS[ckey] or INTERNER.resolve_context(ckey),
            self._messages[row],
            None if request_id == NO_REQUEST else request_id,
            ckey,
            self._mkeys[row],
            _node_of(ckey),
            self._seqs[row],
        )

    def __iter__(self) -> Iterator:
        """A new ``Activity`` per row, in row order (see :meth:`activity`)."""
        return map(self.activity, range(len(self._types)))

    # -- accounting -----------------------------------------------------------

    def nbytes(self) -> int:
        """Byte size of the packed columns (8 a row for each reference
        column; excludes the objects they point to and the interner)."""
        return sum(
            column.itemsize * len(column) if isinstance(column, array) else 8 * len(column)
            for column in self._columns()
        )


def as_table(activities: Iterable) -> ActivityTable:
    """``activities`` as packed rows: a table as it is, anything else
    packed once (:meth:`ActivityTable.from_activities`) -- what every
    entry point that accepts objects does at its boundary."""
    if isinstance(activities, ActivityTable):
        return activities
    return ActivityTable.from_activities(activities)


def _node_of(ckey: int) -> int:
    """The interned node key of an interned context key."""
    node = _NODE_OF.get(ckey)
    if node is None:
        node = _NODE_OF[ckey] = INTERNER.intern_node(INTERNER.resolve_context_key(ckey)[0])
    return node


# Imported at the bottom to break the module cycle: activity.py binds the
# interner's maps at *its* bottom, so whichever of the two is imported
# first finds the other's names already defined.
from .activity import Activity, ActivityType, MessageId, draw_seqs  # noqa: E402

_TYPES = tuple(ActivityType)
# The interner's canonical ContextId per context key (None until someone
# resolves the key: a key space installed from a snapshot).
_CONTEXTS = INTERNER._contexts
