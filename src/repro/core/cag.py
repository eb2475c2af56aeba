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

    __slots__ = ("signature", "segments")

    def __init__(self) -> None:
        #: ``repro.core.patterns.Signature``, interned
        self.signature: Optional[tuple] = None
        #: per-segment latency of the primary path, label -> seconds
        self.segments: Optional[Dict[str, float]] = None


class CAG:
    """The causal path of one individual request.

    Vertices are added in the order the correlation engine discovers them,
    which (by construction of the ranker) is a valid topological order of
    the happened-before relation.
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
        self._edges: List[Edge] = []
        # ``_parents`` doubles as the vertex-membership set: every vertex
        # has an entry (the root's is empty), so no separate id set is
        # kept.  The children adjacency is derived: it is only read by
        # ``children_of``, never by the correlation hot path (and
        # ``topological_order`` builds its own positional one), so it is
        # rebuilt lazily from ``_edges`` on first use and invalidated by
        # every structural mutation.
        self._parents: Dict[int, List[Edge]] = {id(root): []}
        self._children_cache: Optional[Dict[int, List[Edge]]] = None
        # Derived analysis values (signature, breakdown); dropped at the
        # same mutation sites as the children adjacency, never pickled.
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

    def add_vertex(self, activity: Activity) -> None:
        """Add an activity vertex without connecting it yet."""
        if self.finished:
            raise CAGError("cannot add vertices to a finished CAG")
        vertex_id = id(activity)
        if vertex_id in self._parents:
            raise CAGError("activity already present in CAG")
        self._vertices.append(activity)
        self._parents[vertex_id] = []
        self._children_cache = self._analysis = None
        if activity.timestamp > self.newest_timestamp:
            self.newest_timestamp = activity.timestamp

    def add_edge(self, parent: Activity, child: Activity, kind: str) -> Edge:
        """Add a context or message edge.

        Both endpoints must already be vertices.  The Section 3.2
        invariant (at most two parents, two only for RECEIVE with one
        context and one message parent) is enforced here so that a buggy
        engine fails loudly instead of producing malformed paths.
        """
        if kind not in (CONTEXT_EDGE, MESSAGE_EDGE):
            raise CAGError(f"unknown edge kind {kind!r}")
        parent_id = id(parent)
        child_id = id(child)
        parents = self._parents
        if parent_id not in parents:
            raise CAGError("edge parent is not a vertex of this CAG")
        if child_id not in parents:
            raise CAGError("edge child is not a vertex of this CAG")
        if parent is child:
            raise CAGError("self edges are not allowed")

        existing = parents[child_id]
        if existing:
            if len(existing) >= 2:
                raise CAGError("a vertex may have at most two parents")
            if child.type is not ActivityType.RECEIVE:
                raise CAGError("only RECEIVE vertices may have two parents")
            if existing[0].kind == kind:
                raise CAGError(
                    "the two parents of a RECEIVE must use different relations"
                )

        edge = Edge(parent=parent, child=child, kind=kind)
        self._edges.append(edge)
        existing.append(edge)
        self._children_cache = self._analysis = None
        return edge

    def append(self, activity: Activity, parent: Activity, kind: str) -> Edge:
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
        # The engine always passes the module constants, so the identity
        # checks are the hot path; the equality fallback keeps equal
        # strings from other modules working.
        if (
            kind is not CONTEXT_EDGE
            and kind is not MESSAGE_EDGE
            and kind not in (CONTEXT_EDGE, MESSAGE_EDGE)
        ):
            raise CAGError(f"unknown edge kind {kind!r}")
        parents = self._parents
        vertex_id = id(activity)
        if vertex_id in parents:
            raise CAGError("activity already present in CAG")
        if id(parent) not in parents:
            raise CAGError("edge parent is not a vertex of this CAG")
        self._vertices.append(activity)
        edge = Edge(parent=parent, child=activity, kind=kind)
        parents[vertex_id] = [edge]
        self._edges.append(edge)
        self._children_cache = self._analysis = None
        if activity.timestamp > self.newest_timestamp:
            self.newest_timestamp = activity.timestamp
        return edge

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
        if id(vertex) not in self._parents:
            raise CAGError("splice vertex is not a vertex of this CAG")
        for edge in self._parents.get(id(vertex), []):
            if edge.kind == CONTEXT_EDGE:
                raise CAGError("splice vertex already has a context parent")
        removed = None
        for edge in self._parents.get(id(after), []):
            if edge.kind == CONTEXT_EDGE and edge.parent is before:
                removed = edge
                break
        if removed is None:
            raise CAGError("no context edge between the given vertices")
        self._edges.remove(removed)
        self._parents[id(after)].remove(removed)
        self._children_cache = self._analysis = None
        self.add_edge(before, vertex, CONTEXT_EDGE)
        self.add_edge(vertex, after, CONTEXT_EDGE)

    def finish(self) -> None:
        """Mark the CAG as complete (an END activity was correlated)."""
        self.finished = True

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
        """Pickle support: the parents map is keyed by ``id(vertex)``,
        which does not survive a pickle round trip (unpickled vertices get
        new ids).  Serialise it keyed by vertex *position* instead; the
        process-pool sharded correlator ships CAGs across process
        boundaries and relies on this.  The children adjacency and the
        analysis memo are not serialised at all -- both are derived on
        demand (and the memo's interned signature is only canonical
        within one process)."""
        index = {id(vertex): i for i, vertex in enumerate(self._vertices)}
        return {
            "cag_id": self.cag_id,
            "root": self.root,
            "vertices": self._vertices,
            "edges": self._edges,
            "parents": {index[key]: edges for key, edges in self._parents.items()},
            "finished": self.finished,
            "newest_timestamp": self.newest_timestamp,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.cag_id = state["cag_id"]
        self.root = state["root"]
        self._vertices = state["vertices"]
        self._edges = state["edges"]
        self._parents = {
            id(self._vertices[i]): edges for i, edges in state["parents"].items()
        }
        self._children_cache = self._analysis = None
        self.finished = state["finished"]
        self.newest_timestamp = state["newest_timestamp"]

    # -- queries -----------------------------------------------------------

    def __contains__(self, activity: Activity) -> bool:
        return id(activity) in self._parents

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> Sequence[Activity]:
        return tuple(self._vertices)

    @property
    def edges(self) -> Sequence[Edge]:
        return tuple(self._edges)

    @property
    def analysis(self) -> AnalysisMemo:
        """The memo of values derived from the current structure; a fresh
        (empty) one after any structural mutation."""
        memo = self._analysis
        if memo is None:
            memo = self._analysis = AnalysisMemo()
        return memo

    def _children_map(self) -> Dict[int, List[Edge]]:
        """The derived children adjacency, rebuilt lazily from the edge
        list (``children_of`` only; the correlation hot path never reads
        it)."""
        children = self._children_cache
        if children is None:
            children = {id(vertex): [] for vertex in self._vertices}
            for edge in self._edges:
                children[id(edge.parent)].append(edge)
            self._children_cache = children
        return children

    def parents_of(self, activity: Activity) -> List[Edge]:
        return list(self._parents.get(id(activity), []))

    def children_of(self, activity: Activity) -> List[Edge]:
        return list(self._children_map().get(id(activity), []))

    def context_parent(self, activity: Activity) -> Optional[Activity]:
        for edge in self._parents.get(id(activity), []):
            if edge.kind == CONTEXT_EDGE:
                return edge.parent
        return None

    def message_parent(self, activity: Activity) -> Optional[Activity]:
        for edge in self._parents.get(id(activity), []):
            if edge.kind == MESSAGE_EDGE:
                return edge.parent
        return None

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
        parents = self._parents
        position = {id(vertex): i for i, vertex in enumerate(vertices)}
        # Positional adjacency, local to this call: nothing derived stays
        # resident on the CAG once the order has been read off.
        children: List[List[int]] = [[] for _ in vertices]
        for edge in self._edges:
            children[position[id(edge.parent)]].append(position[id(edge.child)])
        indegree = [len(parents[id(vertex)]) for vertex in vertices]
        # The ready set is a heap of (tie key, insertion index): the pop
        # order is the total order a full re-sort on every push gave, and
        # each vertex is keyed once, when it becomes ready.
        if tie_key is None:
            entry = lambda i: (i,)  # noqa: E731
        else:
            entry = lambda i: (tie_key(vertices[i]), i)  # noqa: E731
        ready = [entry(i) for i, degree in enumerate(indegree) if degree == 0]
        heapq.heapify(ready)
        result: List[Activity] = []
        while ready:
            index = heapq.heappop(ready)[-1]
            result.append(vertices[index])
            for child in children[index]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, entry(child))
        if len(result) != len(vertices):
            raise CAGError("CAG contains a cycle")
        return result

    def primary_path(self) -> List[Edge]:
        """The causal chain used for latency accounting.

        Starting from the root, each vertex is reached through exactly one
        *primary* parent: the message parent when it exists (the causally
        immediate predecessor across the network), otherwise the context
        parent.  The resulting edge list covers every vertex exactly once
        and is what Section 3.2 uses to attribute latency to components
        and to interactions.
        """
        primary_edges: List[Edge] = []
        for vertex in self._vertices[1:]:
            parent_edges = self._parents[id(vertex)]
            if not parent_edges:
                # Disconnected vertex (should not happen with a correct
                # engine); skip rather than crash analysis of a deformed CAG.
                continue
            message_edges = [e for e in parent_edges if e.kind == MESSAGE_EDGE]
            primary_edges.append(message_edges[0] if message_edges else parent_edges[0])
        return primary_edges

    def is_deformed(self) -> bool:
        """A deformed CAG misses activities (e.g. the END), has
        disconnected vertices -- the symptom the paper attributes to lost
        activities under network congestion -- or is not a DAG at all
        (``add_edge`` checks each edge locally and cannot see a cycle
        closing), in which case no causal order exists to analyse."""
        if not self.finished:
            return True
        for vertex in self._vertices[1:]:
            if not self._parents[id(vertex)]:
                return True
        try:
            self.topological_order()
        except CAGError:
            return True
        return False

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`CAGError` if any
        is violated.  Used heavily by the property-based tests."""
        for vertex in self._vertices:
            parent_edges = self._parents[id(vertex)]
            if len(parent_edges) > 2:
                raise CAGError("vertex with more than two parents")
            if len(parent_edges) == 2:
                if vertex.type is not ActivityType.RECEIVE:
                    raise CAGError("non-RECEIVE vertex with two parents")
                kinds = {edge.kind for edge in parent_edges}
                if kinds != {CONTEXT_EDGE, MESSAGE_EDGE}:
                    raise CAGError("two parents must be one context + one message")
            for edge in parent_edges:
                if edge.kind == MESSAGE_EDGE:
                    if not edge.parent.type.is_send_like:
                        raise CAGError("message edge parent must be send-like")
                    if not vertex.type.is_receive_like:
                        raise CAGError("message edge child must be receive-like")
                if edge.kind == CONTEXT_EDGE:
                    if edge.parent.context_key != vertex.context_key:
                        raise CAGError("context edge across different contexts")
        # acyclicity (raises on cycle)
        self.topological_order()

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
