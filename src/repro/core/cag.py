"""Component Activity Graph (CAG) abstraction.

A CAG is a directed acyclic graph ``G(V, E)`` whose vertices are the
activities caused by one individual request and whose edges encode the two
happened-before relations of Section 3.2:

* **adjacent context relation** (``x --c--> y``): x happened right before
  y in the *same* execution entity (process or kernel thread);
* **message relation** (``x --m--> y``): x is the SEND of a message and y
  is the RECEIVE of the same message in a different execution entity.

Structural invariant (Section 3.2): every vertex has at most two parents,
and only a RECEIVE vertex may have two -- one context parent and one
message parent.

The CAG is the unit handed to the analysis layer: latency extraction,
pattern classification and performance debugging all operate on CAGs.

A finished CAG is kept for the rest of the run (the store, the report and
the accuracy oracle all read it), so what it holds at rest is what the
tracer's memory grows with.  A finished CAG keeps its vertices as packed
columns (:class:`VertexRows`) plus two objects, the root and the END, and
every reader -- the analysis layer, the digest, the exporters -- reads
those columns and the parent-position columns beside them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import struct
from array import array
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .activity import Activity, ActivityType, ContextId
from .interning import NO_REQUEST

#: Edge kinds.
CONTEXT_EDGE = "context"
MESSAGE_EDGE = "message"

_cag_counter = itertools.count()


def ensure_cag_ids_above(value: int) -> None:
    """Advance the global CAG id counter past ``value``.

    Checkpoint resume unpickles CAGs that carry ids assigned by another
    process; without this bump a freshly created CAG could reuse one of
    those ids and silently replace a live entry in the engine's
    id-keyed ``_open`` map.  Never moves the counter backwards.
    """
    global _cag_counter
    current = next(_cag_counter)
    _cag_counter = itertools.count(max(current, value + 1))


class CAGError(RuntimeError):
    """Raised when an operation would violate the CAG invariants."""


class AnalysisMemo:
    """What the analysis layer derived from one CAG's current structure.

    Filled lazily by :func:`repro.core.patterns.cag_signature` and
    :func:`repro.core.latency.breakdown_for_cag` (the CAG only owns the
    slot and its invalidation), so every consumer of one request --
    classifier, ranked report, summary, store, export -- shares a single
    derivation.  ``signature`` is the *interned* pattern signature: one
    tuple per pattern in the CAG's key space, so a CAG retains a pointer,
    not its own multi-kilobyte copy.  Likewise the segment labels live
    once on the shape plan and a CAG keeps only its per-label sums.
    """

    __slots__ = ("signature", "segments", "plan")

    def __init__(self) -> None:
        #: ``repro.core.patterns.Signature``, interned
        self.signature: Optional[tuple] = None
        #: per-segment latency of the primary path, seconds by index in
        #: the plan's ``labels``: an ``array('d')``, set only beside a plan
        self.segments: Optional[array] = None
        #: ``repro.core.shapes.ShapePlan`` shared by every CAG of this
        #: labelled structure; ``None`` until looked up, and for a CAG
        #: that met a full shape table
        self.plan = None


#: ``ActivityType`` by type value.
_TYPES = tuple(ActivityType)

#: The columns of :class:`VertexRows`, in buffer order (widest first, so
#: every column starts aligned): name, ``struct`` code and the
#: ``Activity`` attribute it holds.
_ROW_LAYOUT = (
    ("timestamp", "d", "timestamp"),
    ("request_id", "q", "request_id"),
    ("seq", "q", "seq"),
    ("size", "q", "size"),
    ("message_size", "q", "message.size"),
    ("context_key", "i", "context_key"),
    ("message_key", "i", "message_key"),
    ("priority", "b", "priority"),
)
#: One vertex's values, in buffer order.
_ROW_VALUES = attrgetter(*[attribute for _name, _code, attribute in _ROW_LAYOUT])
#: Column name -> the reader of its value off an open CAG's ``Activity``.
_ROW_READERS = {name: attrgetter(attribute) for name, _code, attribute in _ROW_LAYOUT}
#: Per column: its ``struct`` code and the bytes one vertex takes in the
#: columns before it.
_ROW_OFFSETS: Dict[str, Tuple[str, int]] = {}
_ROW_BYTES = 0
for _name, _code, _attribute in _ROW_LAYOUT:
    _ROW_OFFSETS[_name] = (_code, _ROW_BYTES)
    _ROW_BYTES += struct.calcsize("=" + _code)


def position_typecode(count: int) -> str:
    """The narrowest ``array`` typecode that holds every position-column
    entry of a ``count``-vertex CAG: ``-1`` up to the edge log's largest
    code, ``2 * count + 1``."""
    bound = 2 * count + 1
    if bound <= 0x7F:
        return "b"
    if bound <= 0x7FFF:
        return "h"
    return "i"


@functools.lru_cache(maxsize=1024)
def _rows_struct(count: int) -> struct.Struct:
    """The layout of ``count`` vertices' rows (one per CAG length)."""
    columns = "".join(f"{count}{code}" for _name, code, _attribute in _ROW_LAYOUT)
    return struct.Struct("=" + columns)


class VertexView(NamedTuple):
    """What a vertex's fingerprint and segment label read: enough of an
    ``Activity`` to derive a new shape's signature and labelled path from
    a packed CAG without building its vertices."""

    type: ActivityType
    context: ContextId
    timestamp: float


class VertexRows(bytes):
    """A finished CAG's vertices as packed columns, in one buffer.

    Column after column (:data:`_ROW_LAYOUT`), one entry a position, 49
    bytes a vertex: ``timestamp``, ``request_id``
    (:data:`~repro.core.interning.NO_REQUEST` for ``None``), ``seq``,
    ``size`` -- the byte count the engine left on the vertex when the CAG
    finished (a matched SEND's is 0) --, ``message_size`` (the logged
    one), ``context_key``, ``message_key`` and ``priority`` (the type
    value).  The context, node and connection are read off the key space,
    so a vertex keeps no object at all: one buffer per CAG, whatever the
    request's size.
    """

    __slots__ = ()

    @classmethod
    def pack(cls, vertices: Sequence[Activity]) -> "VertexRows":
        # One C-level read of every vertex, transposed into columns.
        columns = list(zip(*map(_ROW_VALUES, vertices)))
        request_ids = columns[1]
        if None in request_ids:
            columns[1] = [NO_REQUEST if rid is None else rid for rid in request_ids]
        return cls(_rows_struct(len(vertices)).pack(*itertools.chain.from_iterable(columns)))

    def column(self, name: str) -> Tuple:
        """One column's values, by position."""
        code, before = _ROW_OFFSETS[name]
        count = len(self) // _ROW_BYTES
        return struct.unpack_from(f"={count}{code}", self, before * count)


class CAG:
    """The causal path of one individual request.

    Vertices are added in the order the correlation engine discovers them,
    which (by construction of the ranker) is a valid topological order of
    the happened-before relation.

    Structure is stored as flat *position columns*, not as one object per
    edge: a vertex's position is its index in the insertion-ordered vertex
    list, and the Section 3.2 invariant (at most one context parent and
    one message parent per vertex) means two ``int`` columns hold every
    edge (:attr:`parent_columns`); :meth:`edge_positions` lists them in
    the order they were added.

    Every CAG belongs to a :class:`~repro.core.interning.KeySpace`
    (``keys``): its vertices' context and connection keys are that
    space's ids, and its shape plan and signature are shared there.

    An open CAG holds its vertices as a list of ``Activity`` objects
    (:attr:`vertices`, ``in``): the engine's working set, which it grows
    and finds by identity.  :meth:`finish` packs the CAG into
    :class:`VertexRows` and drops the list, keeping two vertices as
    objects: the root (public as :attr:`root`) and the END, the one
    vertex the engine still changes after finish (a response flushed in
    several writes grows its byte count).  A finished CAG at rest then
    owns its columns, two objects and its three position arrays -- exact
    size, at the narrowest typecode its length allows
    (:func:`position_typecode`) -- whatever the request's size, and is
    read through :meth:`column`, the position
    columns and the queries over them; it refuses :attr:`vertices` and
    ``in``.
    """

    #: Real CAGs are never sampled out; the engine checks this flag to
    #: tell them apart from :class:`SampledOutCAG` tombstones.
    sampled_out = False

    def __init__(self, root: Activity, keys) -> None:
        if not isinstance(root, Activity):
            raise CAGError("CAG root must be an Activity")
        if keys is None:
            raise CAGError("a CAG belongs to a key space: keys must not be None")
        self.cag_id: int = next(_cag_counter)
        #: the :class:`~repro.core.interning.KeySpace` its vertices' keys
        #: are ids of, where its shape plan and signature are shared
        self.keys = keys
        self.root: Activity = root
        # The vertex objects: a list until the CAG is packed, then ``None``.
        self._vertices: Optional[List[Activity]] = [root]
        # The packed vertices and the kept END (see ``finish``).
        self._rows: Optional[VertexRows] = None
        self._end: Optional[Activity] = None
        # ``id(vertex) -> position``: construction-time state only.  It is
        # dropped at ``finish()`` (and never pickled) and rebuilt by
        # ``_positions()`` when a revived open CAG grows again.
        self._index: Optional[Dict[int, int]] = {id(root): 0}
        # Position of each vertex's context / message parent, -1 for none.
        self._context_parent = array("i", (-1,))
        self._message_parent = array("i", (-1,))
        # Edges in insertion order, each ``child position << 1 | is
        # message`` (the parent is read off the matching column); what
        # ``edge_positions`` lists them by.
        self._edge_log = array("i")
        # Derived analysis values (signature, breakdown, shape plan);
        # dropped at every structural mutation, never pickled.
        self._analysis: Optional[AnalysisMemo] = None
        self.finished: bool = False
        #: Local timestamp of the newest activity attributed to this CAG,
        #: maintained incrementally so streaming eviction never has to
        #: rescan the vertex list.  ``touch()`` also folds in merged
        #: kernel parts (segmented BEGIN/SEND/END reads and writes), which
        #: grow an existing vertex without adding a new one but still
        #: prove the request is alive.
        self.newest_timestamp: float = root.timestamp

    # -- construction ------------------------------------------------------

    def _positions(self) -> Dict[int, int]:
        """The ``id(vertex) -> position`` index of an open CAG, rebuilt
        when absent (a revived CAG); a packed CAG refuses, through
        :attr:`vertices`."""
        index = self._index
        if index is None:
            index = self._index = {
                id(vertex): position for position, vertex in enumerate(self.vertices)
            }
        return index

    def add_vertex(self, activity: Activity) -> None:
        """Add an activity vertex without connecting it yet."""
        if self.finished:
            raise CAGError("cannot add vertices to a finished CAG")
        index = self._positions()
        vertex_id = id(activity)
        if vertex_id in index:
            raise CAGError("activity already present in CAG")
        index[vertex_id] = len(self._vertices)
        self._vertices.append(activity)
        self._context_parent.append(-1)
        self._message_parent.append(-1)
        self._analysis = None
        if activity.timestamp > self.newest_timestamp:
            self.newest_timestamp = activity.timestamp

    def add_edge(self, parent: Activity, child: Activity, kind: str) -> None:
        """Add a context or message edge.

        Both endpoints must already be vertices.  The Section 3.2
        invariant (at most two parents, two only for RECEIVE with one
        context and one message parent) is enforced here so that a buggy
        engine fails loudly instead of producing malformed paths.
        """
        if kind not in (CONTEXT_EDGE, MESSAGE_EDGE):
            raise CAGError(f"unknown edge kind {kind!r}")
        index = self._positions()
        parent_position = index.get(id(parent))
        if parent_position is None:
            raise CAGError("edge parent is not a vertex of this CAG")
        position = index.get(id(child))
        if position is None:
            raise CAGError("edge child is not a vertex of this CAG")
        self._link(parent_position, position, kind == MESSAGE_EDGE)

    def _link(self, parent_position: int, position: int, is_message: bool) -> None:
        """Record the edge ``parent_position -> position`` after the
        Section 3.2 parent checks."""
        if parent_position == position:
            raise CAGError("self edges are not allowed")
        column, other = self._context_parent, self._message_parent
        if is_message:
            column, other = other, column
        if column[position] >= 0 or other[position] >= 0:
            if column[position] >= 0 and other[position] >= 0:
                raise CAGError("a vertex may have at most two parents")
            if self._vertices[position].type is not ActivityType.RECEIVE:
                raise CAGError("only RECEIVE vertices may have two parents")
            if column[position] >= 0:
                raise CAGError(
                    "the two parents of a RECEIVE must use different relations"
                )

        column[position] = parent_position
        self._edge_log.append(position << 1 | is_message)
        self._analysis = None

    def append(self, activity: Activity, parent: Activity, kind: str) -> None:
        """Add a vertex and connect it to ``parent`` in one step.

        This is the engine's per-candidate growth path, so it fuses
        ``add_vertex`` + ``add_edge`` into one call and skips the edge
        checks a brand-new child satisfies by construction (no existing
        parents, not a self edge); everything that can actually go wrong
        -- finished CAG, duplicate vertex, foreign parent, bad kind --
        still fails loudly.
        """
        if self.finished:
            raise CAGError("cannot add vertices to a finished CAG")
        # The engine always passes the module constants, which compare
        # equal by identity before any character is looked at.
        if kind == CONTEXT_EDGE:
            is_message = False
        elif kind == MESSAGE_EDGE:
            is_message = True
        else:
            raise CAGError(f"unknown edge kind {kind!r}")
        index = self._index
        if index is None:
            index = self._positions()
        vertex_id = id(activity)
        if vertex_id in index:
            raise CAGError("activity already present in CAG")
        parent_position = index.get(id(parent))
        if parent_position is None:
            raise CAGError("edge parent is not a vertex of this CAG")
        vertices = self._vertices
        position = len(vertices)
        index[vertex_id] = position
        vertices.append(activity)
        if is_message:
            self._context_parent.append(-1)
            self._message_parent.append(parent_position)
        else:
            self._context_parent.append(parent_position)
            self._message_parent.append(-1)
        self._edge_log.append(position << 1 | is_message)
        self._analysis = None
        if activity.timestamp > self.newest_timestamp:
            self.newest_timestamp = activity.timestamp

    def splice_in_order(self, vertex: Activity, latest: Activity) -> None:
        """Insert ``vertex`` into the context chain that ends at ``latest``.

        ``vertex`` must already be a vertex of this CAG without a context
        parent (the engine adds it with its message parent).  Used by the
        engine when a multi-part RECEIVE completes its byte count only
        after a later same-context activity was chained: the walk goes
        back up the context-parent column from ``latest`` to the first
        activity not after ``vertex`` by (timestamp, seq), the per-node
        sort order, and rewires ``before -> after`` into ``before ->
        vertex -> after`` -- or, when every chained activity is later,
        makes ``vertex`` the chain head in front of the last one walked.
        Inserting at the timestamp position keeps the context chain
        independent of the delivery interleaving.
        """
        index = self._positions()
        position = index.get(id(vertex))
        after = index.get(id(latest))
        if position is None or after is None:
            raise CAGError("splice vertices are not vertices of this CAG")
        context_parent = self._context_parent
        if context_parent[position] >= 0:
            raise CAGError("splice vertex already has a context parent")
        vertices = self._vertices
        order = (vertex.timestamp, vertex.seq)
        before = context_parent[after]
        while before >= 0 and (vertices[before].timestamp, vertices[before].seq) > order:
            after, before = before, context_parent[before]
        if before >= 0:
            context_parent[after] = -1
            self._edge_log.remove(after << 1)
            self._link(before, position, False)
        self._link(position, after, False)

    def finish(self) -> None:
        """Mark the CAG as complete (an END activity was correlated).

        The CAG is packed into :class:`VertexRows` here and lets go of
        every vertex object but the root and the last END.  The engine
        releases its own per-vertex state (owners keyed by
        ``id(vertex)``) before this call, since the ids of the released
        objects may be reused."""
        if self.finished:
            return
        self.finished = True
        self._index = None
        vertices = self._vertices
        # The END, last whenever the engine built the CAG.
        self._end = vertices[-1] if vertices[-1].type is ActivityType.END else self.end_activity
        self._rows = VertexRows.pack(vertices)
        self._vertices = None
        self._narrow_positions()

    def _narrow_positions(self) -> None:
        """Re-hold the three position columns at the narrowest typecode
        their length allows, exact size: what a finished CAG keeps."""
        code = position_typecode(len(self))
        if self._context_parent.typecode != code:
            self._context_parent = array(code, self._context_parent)
            self._message_parent = array(code, self._message_parent)
            self._edge_log = array(code, self._edge_log)

    def touch(self, timestamp: float) -> None:
        """Record recent activity that did not add a vertex.

        Called by the engine when a kernel part is merged into an existing
        vertex (multi-part BEGIN bodies, segmented SEND/END writes) so the
        eviction recency of an open CAG reflects the merge, not just the
        first part.
        """
        if timestamp > self.newest_timestamp:
            self.newest_timestamp = timestamp

    # -- serialisation -----------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support.  The state is positional already, so it is
        written as it is held: the vertex objects -- of a packed CAG only
        the root and the END, beside its rows -- and the three position
        columns (a streaming checkpoint pickles the engine's open and
        finished CAGs, and a resume may unpickle them in a new process).
        The ``id -> position`` index and the analysis memo are not
        serialised -- vertex ids do not survive a round trip, and the
        memo is re-derived from the key space, which pickles with
        the CAG (and, through the pickle memo, stays one object with the
        engine's).  The kept END stays the object the engine's context
        map holds, so a trailing part merged after a resume reaches it."""
        rows = self._rows
        return {
            "cag_id": self.cag_id,
            "keys": self.keys,
            "vertices": list(self._vertices) if rows is None else [self.root, self._end],
            "rows": rows,
            "context_parent": self._context_parent,
            "message_parent": self._message_parent,
            "edge_log": self._edge_log,
            "finished": self.finished,
            "newest_timestamp": self.newest_timestamp,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.cag_id = state["cag_id"]
        self.keys = state["keys"]
        vertices = state["vertices"]
        self.root = vertices[0]
        self._rows = rows = state["rows"]
        self._end = None if rows is None else vertices[1]
        self._vertices = None if rows is not None else vertices
        self._index = None
        self._context_parent = state["context_parent"]
        self._message_parent = state["message_parent"]
        self._edge_log = state["edge_log"]
        self._analysis = None
        self.finished = state["finished"]
        self.newest_timestamp = state["newest_timestamp"]
        if rows is not None:
            # a packed CAG from a checkpoint that kept ``'i'`` columns
            self._narrow_positions()

    # -- queries -----------------------------------------------------------

    def __contains__(self, activity: Activity) -> bool:
        return id(activity) in self._positions()

    def __len__(self) -> int:
        return len(self._context_parent)

    @property
    def vertices(self) -> Sequence[Activity]:
        """An open CAG's vertices, in insertion order: the engine's working
        set.  A finished CAG keeps no vertex objects but its root and END
        and refuses; read it through :meth:`column`."""
        vertices = self._vertices
        if vertices is None:
            raise CAGError("a finished CAG is read through its columns, not its vertices")
        return tuple(vertices)

    def vertex_views(self) -> List[VertexView]:
        """Each vertex's ``type``, ``context`` and ``timestamp``, by
        position, read off the columns: a :class:`VertexView` per vertex,
        built for this call, for a caller that reads only those (a new
        shape's derivations, the exporters)."""
        contexts = self.keys.contexts
        return [
            VertexView(_TYPES[kind], contexts[context], timestamp)
            for kind, context, timestamp in zip(
                self.column("priority"), self.column("context_key"), self.column("timestamp")
            )
        ]

    def column(self, name: str) -> Sequence:
        """Attribute ``name`` of every vertex, by position: ``timestamp``,
        ``priority`` (the type value), ``context_key``, ``message_key``,
        ``request_id``, ``seq``, ``size`` or ``message_size`` (the logged
        byte count).  A finished CAG's column is read off its buffer (the
        END's ``size`` is its size at finish, a missing request id is
        :data:`NO_REQUEST`), an open CAG's off its objects (a missing
        request id is ``None``)."""
        rows = self._rows
        if rows is not None:
            return rows.column(name)
        return list(map(_ROW_READERS[name], self._vertices))

    @property
    def parent_columns(self) -> Tuple[array, array]:
        """The ``(context parent, message parent)`` position columns: entry
        ``i`` is the position of vertex ``i``'s parent under that
        relation, ``-1`` for none.  Read-only for callers."""
        return self._context_parent, self._message_parent

    def parent_bytes(self) -> Tuple[bytes, bytes]:
        """The two parent columns as bytes at :func:`position_typecode`
        width: the same for an open CAG and its packed self, whatever
        typecode each holds them at."""
        code = position_typecode(len(self))
        return tuple(
            column.tobytes() if column.typecode == code else array(code, column).tobytes()
            for column in self.parent_columns
        )

    def edge_positions(self) -> List[Tuple[int, int, str]]:
        """Every edge as ``(parent position, child position, kind)``, in
        the order the edges were added."""
        context_parent, message_parent = self._context_parent, self._message_parent
        return [
            (message_parent[code >> 1], code >> 1, MESSAGE_EDGE)
            if code & 1
            else (context_parent[code >> 1], code >> 1, CONTEXT_EDGE)
            for code in self._edge_log
        ]

    @property
    def analysis(self) -> AnalysisMemo:
        """The memo of values derived from the current structure; a fresh
        (empty) one after any structural mutation."""
        memo = self._analysis
        if memo is None:
            memo = self._analysis = AnalysisMemo()
        return memo

    @property
    def end_activity(self) -> Optional[Activity]:
        """The END vertex, if the request completed: a finished CAG's kept
        object; for an open one, the last END among its vertices."""
        if self._rows is not None:
            return self._end
        for activity in reversed(self._vertices):
            if activity.type is ActivityType.END:
                return activity
        return None

    @property
    def begin_timestamp(self) -> float:
        return self.root.timestamp

    @property
    def end_timestamp(self) -> Optional[float]:
        end = self.end_activity
        return end.timestamp if end is not None else None

    def duration(self) -> Optional[float]:
        """End-to-end latency of the request as seen at the frontend node.

        BEGIN and END are observed on the same node, so this duration is
        immune to inter-node clock skew.
        """
        end_ts = self.end_timestamp
        if end_ts is None:
            return None
        return end_ts - self.begin_timestamp

    def components(self) -> List[Tuple[str, str]]:
        """Distinct (hostname, program) pairs in first-seen order."""
        return list(dict.fromkeys(context[:2] for context in self.contexts()))

    def contexts(self) -> List[Tuple[str, str, int, int]]:
        """Distinct execution entities (raw 4-tuples) in first-seen order."""
        contexts = self.keys.contexts
        return [contexts[key].as_tuple() for key in dict.fromkeys(self.column("context_key"))]

    def request_ids(self) -> Set[int]:
        """Ground-truth request ids attached to the member activities.

        A correctly correlated CAG carries exactly one distinct id; mixed
        ids indicate a mis-correlation.  Used only for evaluation.
        """
        ids = set(self.column("request_id"))
        ids.difference_update((NO_REQUEST, None))
        return ids

    # -- causal ordering ---------------------------------------------------

    def topological_positions(self, tie_keys: Optional[Sequence] = None) -> List[int]:
        """Vertex positions in a topological order of the happened-before
        DAG.

        ``tie_keys[i]`` orders position ``i`` among vertices that are
        ready simultaneously (concurrent fan-out branches).  Without it
        ties break by insertion order -- the order the engine discovered
        the vertices in, which depends on the delivery interleaving; pass
        keys (see :func:`repro.core.patterns.cag_signature`) when the
        order must be a function of the graph alone.  The insertion index
        stays as the final fallback so the order is always total.
        """
        count = len(self)
        # Positional adjacency, local to this call: nothing derived stays
        # resident on the CAG once the order has been read off.
        children: List[List[int]] = [[] for _ in range(count)]
        indegree = [0] * count
        for column in self.parent_columns:
            for child, parent in enumerate(column):
                if parent >= 0:
                    children[parent].append(child)
                    indegree[child] += 1
        # The ready set is a heap of (tie key, insertion index): the pop
        # order is the total order a full re-sort on every push gave.
        if tie_keys is None:
            entry = lambda i: (i,)  # noqa: E731
        else:
            entry = lambda i: (tie_keys[i], i)  # noqa: E731
        ready = [entry(i) for i, degree in enumerate(indegree) if degree == 0]
        heapq.heapify(ready)
        result: List[int] = []
        while ready:
            index = heapq.heappop(ready)[-1]
            result.append(index)
            for child in children[index]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, entry(child))
        if len(result) != count:
            raise CAGError("CAG contains a cycle")
        return result

    def primary_positions(self) -> List[Tuple[int, int, str]]:
        """The causal chain used for latency accounting, as ``(child
        position, parent position, kind)`` rows.

        Starting from the root, each vertex is reached through exactly one
        *primary* parent: the message parent when it exists (the causally
        immediate predecessor across the network), otherwise the context
        parent.  The rows cover every vertex but the root exactly once and
        are what Section 3.2 uses to attribute latency to components and
        to interactions.
        """
        rows: List[Tuple[int, int, str]] = []
        context_parent = self._context_parent
        for position, parent in enumerate(self._message_parent):
            if position == 0:
                continue
            if parent >= 0:
                rows.append((position, parent, MESSAGE_EDGE))
            elif context_parent[position] >= 0:
                rows.append((position, context_parent[position], CONTEXT_EDGE))
            # else: disconnected vertex (should not happen with a correct
            # engine); skipped rather than crash analysis of a deformed CAG.
        return rows

    def is_deformed(self) -> bool:
        """A deformed CAG misses activities (e.g. the END), has
        disconnected vertices -- the symptom the paper attributes to lost
        activities under network congestion -- or is not a DAG at all
        (``add_edge`` checks each edge locally and cannot see a cycle
        closing), in which case no causal order exists to analyse."""
        if not self.finished:
            return True
        for position in range(1, len(self)):
            if self._context_parent[position] < 0 and self._message_parent[position] < 0:
                return True
        try:
            self.topological_positions()
        except CAGError:
            return True
        return False

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`CAGError` if any
        is violated.  Used heavily by the property-based tests.

        The columns cannot represent a third parent or two parents under
        one relation, so what is left to check is what they can hold."""
        types = [_TYPES[kind] for kind in self.column("priority")]
        contexts = self.column("context_key")
        for position, (context, message) in enumerate(
            zip(self._context_parent, self._message_parent)
        ):
            kind = types[position]
            if context >= 0 and message >= 0:
                if kind is not ActivityType.RECEIVE:
                    raise CAGError("non-RECEIVE vertex with two parents")
            if message >= 0:
                if not types[message].is_send_like:
                    raise CAGError("message edge parent must be send-like")
                if not kind.is_receive_like:
                    raise CAGError("message edge child must be receive-like")
            if context >= 0:
                if contexts[context] != contexts[position]:
                    raise CAGError("context edge across different contexts")
        # acyclicity (raises on cycle)
        self.topological_positions()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.finished else "open"
        return f"CAG(id={self.cag_id}, vertices={len(self)}, {state})"


class SampledOutCAG:
    """Memory-light tombstone for the CAG of a sampled-out request.

    When the :class:`~repro.sampling.RequestSampler` rejects a request at
    its causal root, the engine still has to keep its index maps exactly
    as the unsampled run would -- pending SENDs must enter the ``mmap``
    (the ranker's noise and Rule-1 decisions consult it), context entries
    must advance -- or the candidate stream itself would change and the
    batch/streaming/sharded equivalence would be lost.  The tombstone
    provides the slice of the CAG interface the engine touches while
    storing only the member-vertex list (needed to release ``mmap`` /
    owner / context-map state on completion or eviction): no edges, no
    adjacency maps, and it is discarded -- never reported, never retained
    -- the moment its END arrives or the eviction horizon passes it.
    """

    sampled_out = True

    __slots__ = ("cag_id", "root", "_vertices", "finished", "newest_timestamp")

    def __init__(self, root: Activity) -> None:
        self.cag_id: int = next(_cag_counter)
        self.root = root
        self._vertices: List[Activity] = [root]
        self.finished = False
        self.newest_timestamp: float = root.timestamp

    def append(self, activity: Activity, parent: Activity, kind: str) -> None:
        """Record a member vertex (no edge is materialised)."""
        self._vertices.append(activity)
        if activity.timestamp > self.newest_timestamp:
            self.newest_timestamp = activity.timestamp
        return None

    def add_edge(self, parent: Activity, child: Activity, kind: str) -> None:
        """Edges of sampled-out requests are dropped."""
        return None

    def splice_in_order(self, vertex: Activity, latest: Activity) -> None:
        """Sampled-out requests keep no context chain."""
        return None

    def touch(self, timestamp: float) -> None:
        if timestamp > self.newest_timestamp:
            self.newest_timestamp = timestamp

    def finish(self) -> None:
        self.finished = True

    @property
    def vertices(self) -> Sequence[Activity]:
        return tuple(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampledOutCAG(id={self.cag_id}, vertices={len(self)})"
