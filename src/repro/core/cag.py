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
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .activity import Activity, ActivityType

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


@dataclass(slots=True)
class Edge:
    """A directed edge of a CAG."""

    parent: Activity
    child: Activity
    kind: str  # CONTEXT_EDGE or MESSAGE_EDGE

    def latency(self) -> float:
        """Observed latency across this edge (child local time minus
        parent local time).  For message edges between different nodes
        the value embeds the clock skew, exactly as the paper notes."""
        return self.child.timestamp - self.parent.timestamp

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Edge({self.parent.type.name}->{self.child.type.name}, {self.kind})"


class AnalysisMemo:
    """What the analysis layer derived from one CAG's current structure.

    Filled lazily by :func:`repro.core.patterns.cag_signature` and
    :func:`repro.core.latency.breakdown_for_cag` (the CAG only owns the
    slot and its invalidation), so every consumer of one request --
    classifier, ranked report, summary, store, export -- shares a single
    derivation.  ``signature`` is the *interned* pattern signature: one
    tuple per pattern for the whole process, so a CAG retains a pointer,
    not its own multi-kilobyte copy.
    """

    __slots__ = ("signature", "segments", "plan")

    def __init__(self) -> None:
        #: ``repro.core.patterns.Signature``, interned
        self.signature: Optional[tuple] = None
        #: per-segment latency of the primary path, label -> seconds
        self.segments: Optional[Dict[str, float]] = None
        #: ``repro.core.shapes.ShapePlan`` shared by every CAG of this
        #: labelled structure; ``None`` until looked up, and for a CAG
        #: that met a full shape table
        self.plan = None


class CAG:
    """The causal path of one individual request.

    Vertices are added in the order the correlation engine discovers them,
    which (by construction of the ranker) is a valid topological order of
    the happened-before relation.

    Structure is stored as flat *position columns*, not as one object per
    edge: a vertex's position is its index in the insertion-ordered vertex
    list, and the Section 3.2 invariant (at most one context parent and
    one message parent per vertex) means two ``int`` columns hold every
    edge.  :class:`Edge` objects are views built on demand by the query
    methods; a CAG at rest owns a vertex list and three packed arrays
    whatever the request's size, so its structure costs a few bytes per
    vertex and the cyclic collector has four objects to visit, not two
    per vertex.
    """

    #: Real CAGs are never sampled out; the engine checks this flag to
    #: tell them apart from :class:`SampledOutCAG` tombstones.
    sampled_out = False

    def __init__(self, root: Activity, cag_id: Optional[int] = None) -> None:
        if not isinstance(root, Activity):
            raise CAGError("CAG root must be an Activity")
        self.cag_id: int = cag_id if cag_id is not None else next(_cag_counter)
        self.root: Activity = root
        self._vertices: List[Activity] = [root]
        # ``id(vertex) -> position``: construction-time state only.  It is
        # dropped at ``finish()`` (and never pickled) and rebuilt by
        # ``_positions()`` if a finished or revived CAG is asked about a
        # specific vertex again.
        self._index: Optional[Dict[int, int]] = {id(root): 0}
        # Position of each vertex's context / message parent, -1 for none.
        self._context_parent = array("i", (-1,))
        self._message_parent = array("i", (-1,))
        # Edges in insertion order, each ``child position << 1 | is
        # message`` (the parent is read off the matching column); what
        # ``edges`` / ``parents_of`` / ``children_of`` order their views by.
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
        """The ``id(vertex) -> position`` index, rebuilt when absent."""
        index = self._index
        if index is None:
            index = self._index = {
                id(vertex): position for position, vertex in enumerate(self._vertices)
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
        Nothing is returned: :class:`Edge` views come from the queries.
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
        if parent is child:
            raise CAGError("self edges are not allowed")

        is_message = kind == MESSAGE_EDGE
        column, other = self._context_parent, self._message_parent
        if is_message:
            column, other = other, column
        if column[position] >= 0 or other[position] >= 0:
            if column[position] >= 0 and other[position] >= 0:
                raise CAGError("a vertex may have at most two parents")
            if child.type is not ActivityType.RECEIVE:
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

    def splice_context_vertex(
        self, before: Activity, after: Activity, vertex: Activity
    ) -> None:
        """Rewire the context chain ``before -> after`` into
        ``before -> vertex -> after``.

        ``vertex`` must already be a vertex of this CAG (typically added
        with its message parent).  Used by the engine when a multi-part
        RECEIVE completes its byte count only after a later same-context
        activity was chained: inserting at the timestamp position keeps
        the context chain independent of the delivery interleaving.
        """
        index = self._positions()
        position = index.get(id(vertex))
        if position is None:
            raise CAGError("splice vertex is not a vertex of this CAG")
        context_parent = self._context_parent
        if context_parent[position] >= 0:
            raise CAGError("splice vertex already has a context parent")
        after_position = index.get(id(after))
        before_position = index.get(id(before))
        if (
            after_position is None
            or before_position is None
            or context_parent[after_position] != before_position
        ):
            raise CAGError("no context edge between the given vertices")
        context_parent[after_position] = -1
        self._edge_log.remove(after_position << 1)
        self._analysis = None
        self.add_edge(before, vertex, CONTEXT_EDGE)
        self.add_edge(vertex, after, CONTEXT_EDGE)

    def finish(self) -> None:
        """Mark the CAG as complete (an END activity was correlated)."""
        self.finished = True
        self._index = None

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
        written as it is held: the vertex list and the three packed
        columns (a streaming checkpoint pickles the engine's open CAGs,
        and a resume may unpickle them in a new process).  The
        ``id -> position`` index and the analysis memo are
        not serialised -- vertex ids do not survive a round trip, and the
        memo's interned signature and shape plan are only canonical
        within one process."""
        return {
            "cag_id": self.cag_id,
            "vertices": self._vertices,
            "context_parent": self._context_parent,
            "message_parent": self._message_parent,
            "edge_log": self._edge_log,
            "finished": self.finished,
            "newest_timestamp": self.newest_timestamp,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.cag_id = state["cag_id"]
        self._vertices = state["vertices"]
        self.root = self._vertices[0]
        self._index = None
        self._context_parent = state["context_parent"]
        self._message_parent = state["message_parent"]
        self._edge_log = state["edge_log"]
        self._analysis = None
        self.finished = state["finished"]
        self.newest_timestamp = state["newest_timestamp"]

    # -- queries -----------------------------------------------------------

    def __contains__(self, activity: Activity) -> bool:
        return id(activity) in self._positions()

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> Sequence[Activity]:
        return tuple(self._vertices)

    def _edge(self, code: int) -> Edge:
        """The :class:`Edge` view of one edge-log entry."""
        position = code >> 1
        if code & 1:
            parent, kind = self._message_parent[position], MESSAGE_EDGE
        else:
            parent, kind = self._context_parent[position], CONTEXT_EDGE
        vertices = self._vertices
        return Edge(vertices[parent], vertices[position], kind)

    @property
    def edges(self) -> Sequence[Edge]:
        """Every edge, in insertion order."""
        return tuple(map(self._edge, self._edge_log))

    @property
    def parent_columns(self) -> Tuple[array, array]:
        """The ``(context parent, message parent)`` position columns: entry
        ``i`` is the position in :attr:`vertices` of vertex ``i``'s parent
        under that relation, ``-1`` for none.  Read-only for callers."""
        return self._context_parent, self._message_parent

    @property
    def analysis(self) -> AnalysisMemo:
        """The memo of values derived from the current structure; a fresh
        (empty) one after any structural mutation."""
        memo = self._analysis
        if memo is None:
            memo = self._analysis = AnalysisMemo()
        return memo

    def parents_of(self, activity: Activity) -> List[Edge]:
        """The edges into ``activity``, in insertion order."""
        position = self._positions().get(id(activity))
        if position is None:
            return []
        codes = []
        if self._context_parent[position] >= 0:
            codes.append(position << 1)
        if self._message_parent[position] >= 0:
            codes.append(position << 1 | 1)
        if len(codes) == 2:
            codes.sort(key=self._edge_log.index)
        return [self._edge(code) for code in codes]

    def children_of(self, activity: Activity) -> List[Edge]:
        """The edges out of ``activity``, in insertion order (derived by a
        scan of the edge log; the correlation hot path never asks)."""
        position = self._positions().get(id(activity))
        if position is None:
            return []
        columns = self.parent_columns
        return [
            self._edge(code)
            for code in self._edge_log
            if columns[code & 1][code >> 1] == position
        ]

    def _parent(self, activity: Activity, column: Sequence[int]) -> Optional[Activity]:
        position = self._positions().get(id(activity))
        if position is None or column[position] < 0:
            return None
        return self._vertices[column[position]]

    def context_parent(self, activity: Activity) -> Optional[Activity]:
        return self._parent(activity, self._context_parent)

    def message_parent(self, activity: Activity) -> Optional[Activity]:
        return self._parent(activity, self._message_parent)

    @property
    def end_activity(self) -> Optional[Activity]:
        """The END vertex, if the request completed."""
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
        return list(dict.fromkeys(activity.component for activity in self._vertices))

    def contexts(self) -> List[Tuple[str, str, int, int]]:
        """Distinct execution entities (raw 4-tuples) in first-seen order."""
        seen: List[Tuple[str, str, int, int]] = []
        seen_keys: Set[int] = set()
        for activity in self._vertices:
            key = activity.context_key
            if key not in seen_keys:
                seen_keys.add(key)
                seen.append(activity.context.as_tuple())
        return seen

    def request_ids(self) -> Set[int]:
        """Ground-truth request ids attached to the member activities.

        A correctly correlated CAG carries exactly one distinct id; mixed
        ids indicate a mis-correlation.  Used only for evaluation.
        """
        return {
            activity.request_id
            for activity in self._vertices
            if activity.request_id is not None
        }

    # -- causal ordering ---------------------------------------------------

    def topological_positions(self, tie_key=None) -> List[int]:
        """Vertex positions in a topological order of the happened-before
        DAG (see :meth:`topological_order`, which maps them to vertices)."""
        vertices = self._vertices
        # Positional adjacency, local to this call: nothing derived stays
        # resident on the CAG once the order has been read off.
        children: List[List[int]] = [[] for _ in vertices]
        indegree = [0] * len(vertices)
        for column in self.parent_columns:
            for child, parent in enumerate(column):
                if parent >= 0:
                    children[parent].append(child)
                    indegree[child] += 1
        # The ready set is a heap of (tie key, insertion index): the pop
        # order is the total order a full re-sort on every push gave, and
        # each vertex is keyed once, when it becomes ready.
        if tie_key is None:
            entry = lambda i: (i,)  # noqa: E731
        else:
            entry = lambda i: (tie_key(vertices[i]), i)  # noqa: E731
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
        if len(result) != len(vertices):
            raise CAGError("CAG contains a cycle")
        return result

    def topological_order(self, tie_key=None) -> List[Activity]:
        """Vertices in a topological order of the happened-before DAG.

        ``tie_key`` orders vertices that are ready simultaneously
        (concurrent fan-out branches).  The default breaks ties by
        insertion order -- the order the engine discovered the vertices
        in, which depends on the delivery interleaving; pass an explicit
        key (see :func:`repro.core.patterns.cag_signature`) when the
        order must be a function of the graph alone.  The insertion
        index stays as the final fallback so the order is always total.
        """
        vertices = self._vertices
        return [vertices[i] for i in self.topological_positions(tie_key)]

    def primary_positions(self) -> List[Tuple[int, int, str]]:
        """:meth:`primary_path` as ``(child position, parent position,
        kind)`` rows, without materialising :class:`Edge` views."""
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

    def primary_path(self) -> List[Edge]:
        """The causal chain used for latency accounting.

        Starting from the root, each vertex is reached through exactly one
        *primary* parent: the message parent when it exists (the causally
        immediate predecessor across the network), otherwise the context
        parent.  The resulting edge list covers every vertex exactly once
        and is what Section 3.2 uses to attribute latency to components
        and to interactions.
        """
        vertices = self._vertices
        return [
            Edge(vertices[parent], vertices[position], kind)
            for position, parent, kind in self.primary_positions()
        ]

    def is_deformed(self) -> bool:
        """A deformed CAG misses activities (e.g. the END), has
        disconnected vertices -- the symptom the paper attributes to lost
        activities under network congestion -- or is not a DAG at all
        (``add_edge`` checks each edge locally and cannot see a cycle
        closing), in which case no causal order exists to analyse."""
        if not self.finished:
            return True
        for position in range(1, len(self._vertices)):
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
        vertices = self._vertices
        for vertex, context, message in zip(
            vertices, self._context_parent, self._message_parent
        ):
            if context >= 0 and message >= 0:
                if vertex.type is not ActivityType.RECEIVE:
                    raise CAGError("non-RECEIVE vertex with two parents")
            if message >= 0:
                if not vertices[message].type.is_send_like:
                    raise CAGError("message edge parent must be send-like")
                if not vertex.type.is_receive_like:
                    raise CAGError("message edge child must be receive-like")
            if context >= 0:
                if vertices[context].context_key != vertex.context_key:
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

    def parents_of(self, activity: Activity) -> List[Edge]:
        return []

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


def iter_edges_in_causal_order(cag: CAG) -> Iterator[Edge]:
    """Yield the primary-path edges ordered by their child's position."""
    for edge in cag.primary_path():
        yield edge
