"""Key spaces and columnar activity storage (the hot-path substrate).

The correlation algorithm never inspects the *content* of an identity
key: the ranker's future-send registry, the engine's ``cmap``/``mmap``
and the CAG bookkeeping only ever hash keys and compare them for
equality.  That makes the keys themselves replaceable: a
:class:`KeySpace` gives every distinct context 4-tuple, connection
4-tuple and node hostname of one run a dense ``int`` the first time it
is seen, and the whole hot path -- ranker sweeps, index-map lookups,
buffered-send indexing, tombstone purges -- runs on those ints
end-to-end.  Interning is injective and first-seen ordered, so every
keyed structure behaves exactly as it did with tuple keys (same
membership, same insertion order, same iteration order); only the hash
and comparison cost drops.

A key space belongs to one run, never to the process.  The ids are an
artefact of that run's ingest order, so anything that leaves the run
(golden digests, the root-hash sampling decision) resolves back to the
string/tuple identity first -- see ``repro.sampling.sampler.root_key``
and ``repro.pipeline.equivalence._fingerprint``.  A key space grows with
the run's distinct contexts and connections -- nothing ages out of it
while the run lasts -- and is freed with the tables and CAGs that
reference it; a streaming checkpoint pickles it with the engine that
holds it.

:class:`ActivityTable` is the companion columnar store, and the one
form a trace takes on its way to the ranker: parallel columns of type /
timestamp / key ids / request id / ``seq`` plus a reference to the
row's shared ``MessageId``, over one key space.  The log front end
writes it (``ActivityClassifier.pack_lines``), an entry point handed
objects packs them once (``ActivityTable.from_activities``), each
ranker source keeps its node's rows in one, and an ``Activity`` is
built from a row only when something needs the object -- the ranker, at
the moment it delivers the row.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import itemgetter, le, lt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .activity import Activity, ActivityType, ContextId, MessageId, draw_seqs

#: Raw context identity: (hostname, program, pid, tid).
ContextTuple = Tuple[str, str, int, int]
#: Raw directional connection identity: (src_ip, src_port, dst_ip, dst_port).
MessageTuple = Tuple[str, int, str, int]


class KeySpace:
    """One run's identity keys as dense ints, and what the analysis layer
    compiles once per request shape of that run.

    Ids are assigned first-seen, per kind, starting at 0.  A context's
    node (its hostname) and component (its ``(hostname, program)``, the
    identity pattern isomorphism compares, Section 3.2) get their ids
    when the context does, so every per-context question is a list
    index.  Each :class:`~repro.core.log_format.ActivityClassifier` and
    each :meth:`ActivityTable.from_activities` pack creates one; every
    table derived from a table, the ranker and engine it feeds and the
    CAGs they build share it.
    """

    __slots__ = (
        "context_ids",
        "contexts",
        "node_of",
        "component_of",
        "node_ids",
        "component_ids",
        "message_ids",
        "connections",
        "plans",
        "signatures",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.context_ids: Dict[ContextTuple, int] = {}
        #: the canonical ``ContextId`` per context id
        self.contexts: List[ContextId] = []
        #: node id per context id
        self.node_of: List[int] = []
        #: component id per context id
        self.component_of: List[int] = []
        self.node_ids: Dict[str, int] = {}
        self.component_ids: Dict[Tuple[str, str], int] = {}
        self.message_ids: Dict[MessageTuple, int] = {}
        #: the connection 4-tuple per message id
        self.connections: List[MessageTuple] = []
        #: ``repro.core.shapes.ShapePlan`` per labelled CAG structure (at
        #: most ``repro.core.shapes.MAX_SHAPES``)
        self.plans: Dict[tuple, object] = {}
        #: one shared ``repro.core.patterns.Signature`` per pattern
        self.signatures: Dict[tuple, tuple] = {}

    def context_key(self, context: ContextId) -> int:
        """The id of ``context``'s identity; a context first seen becomes
        the canonical object for its id."""
        key = context.as_tuple()
        cid = self.context_ids.get(key)
        if cid is None:
            cid = self.context_ids[key] = len(self.contexts)
            self.contexts.append(context)
            node_ids, component_ids = self.node_ids, self.component_ids
            self.node_of.append(node_ids.setdefault(context.hostname, len(node_ids)))
            self.component_of.append(
                component_ids.setdefault(context.component, len(component_ids))
            )
        return cid

    def message_key(self, connection: MessageTuple) -> int:
        """The id of a directional connection 4-tuple."""
        mid = self.message_ids.get(connection)
        if mid is None:
            mid = self.message_ids[connection] = len(self.connections)
            self.connections.append(connection)
        return mid

    def sizes(self) -> Dict[str, int]:
        """Distinct keys per kind, plans and signatures (monitoring, tests)."""
        return {
            "contexts": len(self.contexts),
            "messages": len(self.connections),
            "nodes": len(self.node_ids),
            "plans": len(self.plans),
            "signatures": len(self.signatures),
        }


#: What the request-id column holds for ``request_id=None``: the one
#: int64 no id is allowed to be.  Every other int64 is an id (a log may
#: annotate ``#rid=-3``); an id outside int64 does not fit the column, so
#: a log line carrying one is malformed (``parse_record``) and an object
#: carrying one cannot be packed (``OverflowError``).
NO_REQUEST = -(1 << 63)
#: First int above the column's range: ``NO_REQUEST < id < REQUEST_LIMIT``.
REQUEST_LIMIT = 1 << 63


class ActivityTable:
    """Columnar activity storage: struct-packed parallel columns.

    One row per activity, about 49 bytes against roughly 480 for the
    ``Activity`` object graph:

    ========== ===== ==============================================
    column     type  content
    ========== ===== ==============================================
    type       b     :class:`ActivityType` value / Rule 2 priority
    timestamp  d     local timestamp (seconds)
    ckey       list  context id in :attr:`keys`
    mkey       list  message (connection) id in :attr:`keys`
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
    column.  Nothing per row asks the key space anything: the ids are
    stored, and a context id indexes its canonical ``ContextId`` and
    node id lists.

    A table's ids are those of its :attr:`keys`.  A table derived from
    one (:meth:`take`, a slice, :meth:`by_node`, :meth:`ordered`) shares
    its key space, and :meth:`concat` / :meth:`insert_from` refuse rows
    of another (``ValueError``): an id means nothing outside its space.

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
        "keys",
        "_types",
        "_timestamps",
        "_ckeys",
        "_mkeys",
        "_request_ids",
        "_seqs",
        "_messages",
    )

    def __init__(self, keys: Optional[KeySpace] = None) -> None:
        #: the key space the key columns hold ids of (a new one by default)
        self.keys = KeySpace() if keys is None else keys
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
        """Pack an activity iterable into columns, over a new key space."""
        table = cls()
        table.extend(activities)
        return table

    def append(self, activity) -> None:
        """Append one activity's row (see :meth:`extend`)."""
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
        distinct one).  The key columns hold this table's ids of each
        object's identity (``context``, ``message.connection_key()``),
        never the object's own key slots: those belong to whatever built
        the object.
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
        # One dict probe per row; only a key first seen takes the call.
        keys = self.keys
        contexts = [a.context for a in batch]
        context_ids = keys.context_ids
        ckeys = [context_ids.get(context.as_tuple()) for context in contexts]
        if None in ckeys:
            ckeys = [
                keys.context_key(context) if ckey is None else ckey
                for ckey, context in zip(ckeys, contexts)
            ]
        connections = [a.message.connection_key() for a in batch]
        message_ids = keys.message_ids
        mkeys = [message_ids.get(connection) for connection in connections]
        if None in mkeys:
            mkeys = [
                keys.message_key(connection) if mkey is None else mkey
                for mkey, connection in zip(mkeys, connections)
            ]
        self._ckeys += ckeys
        self._mkeys += mkeys
        self._seqs.fromlist([a.seq for a in batch])
        shared: Dict[Tuple[int, int], MessageId] = {}
        self._messages += [
            shared.setdefault((mkey, a.message.size), a.message) for mkey, a in zip(mkeys, batch)
        ]

    def rekeyed(self, keys: KeySpace) -> "ActivityTable":
        """These rows with the ids ``keys`` gives their identities -- a
        table of another run's key space made this one's (a resumed
        checkpoint fed by a fresh source).  One lookup per distinct
        context and connection; ids ``keys`` already holds keep their
        values, and what it has not seen is interned in row order."""
        own = self.keys
        contexts = {
            ckey: keys.context_key(own.contexts[ckey]) for ckey in dict.fromkeys(self._ckeys)
        }
        messages = {
            mkey: keys.message_key(own.connections[mkey]) for mkey in dict.fromkeys(self._mkeys)
        }
        moved = self[:]
        moved.keys = keys
        moved._ckeys = list(map(contexts.__getitem__, self._ckeys))
        moved._mkeys = list(map(messages.__getitem__, self._mkeys))
        return moved

    def _check_space(self, other: "ActivityTable") -> None:
        if other.keys is not self.keys:
            raise ValueError("the rows belong to another key space (see ActivityTable.rekeyed)")

    def concat(self, other: "ActivityTable") -> None:
        """Append every row of ``other`` (a block copy per column); both
        tables must share one key space."""
        self._check_space(other)
        for column, addition in zip(self._columns(), other._columns()):
            column += addition

    def insert_from(self, index: int, other: "ActivityTable", row: int) -> None:
        """Insert row ``row`` of ``other`` (same key space) in front of row
        ``index``, every column moved together."""
        self._check_space(other)
        for column, source in zip(self._columns(), other._columns()):
            column.insert(index, source[row])

    def take(self, rows: Sequence[int]) -> "ActivityTable":
        """A new table holding ``rows`` of this one, in the order given."""
        if not rows:
            return ActivityTable(self.keys)
        # One C call per column: a streaming chunk is split per node like
        # this on every ingest.  (``itemgetter`` of one index is no tuple.)
        if len(rows) == 1:
            row = rows[0]

            def pick(column):
                return (column[row],)

        else:
            pick = itemgetter(*rows)
        taken = ActivityTable.__new__(ActivityTable)
        taken.keys = self.keys
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
        taken = ActivityTable(self.keys)
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
        """Node id -> that node's rows, in row order; nodes in first-seen
        order.  A table of one node -- what a per-node log yields -- is
        returned as it is, not copied."""
        nodes = list(map(self.keys.node_of.__getitem__, self._ckeys))
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
        return self.keys.node_of[self._ckeys[row]]

    def activity(self, row: int):
        """Build row ``row``'s ``Activity``: a new object on every call
        (``Ranker.rank`` inlines this for the row it delivers)."""
        ckey = self._ckeys[row]
        request_id = self._request_ids[row]
        keys = self.keys
        return Activity.keyed(
            _TYPES[self._types[row]],
            self._timestamps[row],
            keys.contexts[ckey],
            self._messages[row],
            None if request_id == NO_REQUEST else request_id,
            ckey,
            self._mkeys[row],
            keys.node_of[ckey],
            self._seqs[row],
        )

    def __iter__(self) -> Iterator:
        """A new ``Activity`` per row, in row order (see :meth:`activity`)."""
        return map(self.activity, range(len(self._types)))

    # -- accounting -----------------------------------------------------------

    def nbytes(self) -> int:
        """Byte size of the packed columns (8 a row for each reference
        column; excludes the objects they point to and the key space)."""
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


def joined(tables: Iterable[ActivityTable]) -> ActivityTable:
    """Every row of ``tables`` -- of one key space, like the blocks of one
    source -- in one new table (empty, over a new key space, for none)."""
    whole = None
    for table in tables:
        if whole is None:
            whole = ActivityTable(table.keys)
        whole.concat(table)
    return whole if whole is not None else ActivityTable()


#: ``ActivityType`` by type value / Rule 2 priority.
_TYPES = tuple(ActivityType)
