"""Unit tests for the Component Activity Graph abstraction."""

import gc
import pickle

import pytest

from helpers import in_space
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, Edge, MESSAGE_EDGE
from repro.core.interning import KeySpace
from repro.pipeline import BackendSpec

#: The key space every hand-built vertex of this module is keyed in.
KEYS = KeySpace()


def activity(activity_type, timestamp, host="web", program="httpd", pid=1, tid=1, rid=None):
    (built,) = in_space(
        KEYS,
        Activity(
            type=activity_type,
            timestamp=timestamp,
            context=ContextId(host, program, pid, tid),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
            request_id=rid,
        ),
    )
    return built


def simple_chain():
    """BEGIN -> SEND -> RECEIVE -> END across two components."""
    begin = activity(ActivityType.BEGIN, 1.0)
    send = activity(ActivityType.SEND, 1.1)
    receive = activity(ActivityType.RECEIVE, 1.2, host="app", program="java", pid=2, tid=2)
    reply_send = activity(ActivityType.SEND, 1.3, host="app", program="java", pid=2, tid=2)
    reply_receive = activity(ActivityType.RECEIVE, 1.4)
    end = activity(ActivityType.END, 1.5)

    cag = CAG(begin, KEYS)
    cag.append(send, begin, CONTEXT_EDGE)
    cag.append(receive, send, MESSAGE_EDGE)
    cag.append(reply_send, receive, CONTEXT_EDGE)
    cag.append(reply_receive, reply_send, MESSAGE_EDGE)
    cag.add_edge(send, reply_receive, CONTEXT_EDGE)
    cag.append(end, reply_receive, CONTEXT_EDGE)
    return cag, [begin, send, receive, reply_send, reply_receive, end]


class TestConstruction:
    def test_root_is_first_vertex(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        cag = CAG(begin, KEYS)
        assert cag.root is begin
        assert len(cag) == 1
        assert begin in cag

    def test_root_must_be_activity(self):
        with pytest.raises(CAGError):
            CAG("not an activity", KEYS)

    def test_a_cag_without_a_key_space_is_refused(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        with pytest.raises(CAGError, match="key space"):
            CAG(begin, None)
        with pytest.raises(TypeError):
            CAG(begin)

    def test_append_adds_vertex_and_edge(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.1)
        cag = CAG(begin, KEYS)
        assert cag.append(send, begin, CONTEXT_EDGE) is None
        assert len(cag) == 2
        (edge,) = cag.edges
        assert edge.parent is begin and edge.child is send
        assert edge.kind == CONTEXT_EDGE

    def test_duplicate_vertex_rejected(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        cag = CAG(begin, KEYS)
        with pytest.raises(CAGError):
            cag.add_vertex(begin)

    def test_edge_requires_known_vertices(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        other = activity(ActivityType.SEND, 1.1)
        cag = CAG(begin, KEYS)
        with pytest.raises(CAGError):
            cag.add_edge(begin, other, CONTEXT_EDGE)
        with pytest.raises(CAGError):
            cag.add_edge(other, begin, CONTEXT_EDGE)

    def test_unknown_edge_kind_rejected(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.1)
        cag = CAG(begin, KEYS)
        cag.add_vertex(send)
        with pytest.raises(CAGError):
            cag.add_edge(begin, send, "bogus")

    def test_self_edge_rejected(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        cag = CAG(begin, KEYS)
        with pytest.raises(CAGError):
            cag.add_edge(begin, begin, CONTEXT_EDGE)

    def test_cannot_add_after_finish(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        cag = CAG(begin, KEYS)
        cag.finish()
        with pytest.raises(CAGError):
            cag.add_vertex(activity(ActivityType.SEND, 1.1))


class TestParentInvariants:
    def test_receive_may_have_two_parents(self):
        cag, vertices = simple_chain()
        reply_receive = vertices[4]
        parents = cag.parents_of(reply_receive)
        assert len(parents) == 2
        kinds = {edge.kind for edge in parents}
        assert kinds == {CONTEXT_EDGE, MESSAGE_EDGE}

    def test_non_receive_cannot_have_two_parents(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        a = activity(ActivityType.SEND, 1.1)
        b = activity(ActivityType.SEND, 1.2)
        cag = CAG(begin, KEYS)
        cag.append(a, begin, CONTEXT_EDGE)
        cag.append(b, begin, CONTEXT_EDGE)
        with pytest.raises(CAGError):
            cag.add_edge(a, b, MESSAGE_EDGE)

    def test_two_parents_must_use_different_relations(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.1)
        other_send = activity(ActivityType.SEND, 1.15)
        receive = activity(ActivityType.RECEIVE, 1.2, host="app", program="java", pid=2, tid=2)
        cag = CAG(begin, KEYS)
        cag.append(send, begin, CONTEXT_EDGE)
        cag.append(other_send, send, CONTEXT_EDGE)
        cag.append(receive, send, MESSAGE_EDGE)
        with pytest.raises(CAGError):
            cag.add_edge(other_send, receive, MESSAGE_EDGE)

    def test_third_parent_always_rejected(self):
        cag, vertices = simple_chain()
        reply_receive = vertices[4]
        with pytest.raises(CAGError):
            cag.add_edge(vertices[0], reply_receive, CONTEXT_EDGE)


class TestQueries:
    def test_contains_and_len(self):
        cag, vertices = simple_chain()
        assert len(cag) == 6
        for vertex in vertices:
            assert vertex in cag

    def test_parent_accessors(self):
        cag, vertices = simple_chain()
        receive = vertices[2]
        assert cag.message_parent(receive) is vertices[1]
        assert cag.context_parent(receive) is None
        reply_receive = vertices[4]
        assert cag.message_parent(reply_receive) is vertices[3]
        assert cag.context_parent(reply_receive) is vertices[1]

    def test_end_activity_and_duration(self):
        cag, vertices = simple_chain()
        assert cag.end_activity is vertices[-1]
        assert cag.duration() == pytest.approx(0.5)

    def test_duration_none_without_end(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        cag = CAG(begin, KEYS)
        assert cag.duration() is None
        assert cag.end_timestamp is None

    def test_components_in_first_seen_order(self):
        cag, _ = simple_chain()
        assert cag.components() == [("web", "httpd"), ("app", "java")]

    def test_contexts_lists_execution_entities(self):
        cag, _ = simple_chain()
        assert set(cag.contexts()) == {("web", "httpd", 1, 1), ("app", "java", 2, 2)}

    def test_request_ids_collects_ground_truth_tags(self):
        begin = activity(ActivityType.BEGIN, 1.0, rid=9)
        send = activity(ActivityType.SEND, 1.1, rid=9)
        cag = CAG(begin, KEYS)
        cag.append(send, begin, CONTEXT_EDGE)
        assert cag.request_ids() == {9}

    def test_children_accessor(self):
        cag, vertices = simple_chain()
        children = [edge.child for edge in cag.children_of(vertices[1])]
        assert any(child is vertices[2] for child in children)


class TestOrderingAndPaths:
    def test_topological_order_respects_edges(self):
        cag, vertices = simple_chain()
        order = cag.topological_order()
        position = {id(v): i for i, v in enumerate(order)}
        for edge in cag.edges:
            assert position[id(edge.parent)] < position[id(edge.child)]

    def test_primary_path_covers_every_non_root_vertex(self):
        cag, vertices = simple_chain()
        path = cag.primary_path()
        assert len(path) == len(vertices) - 1
        children = [edge.child for edge in path]
        assert children == vertices[1:]

    def test_primary_path_prefers_message_edges(self):
        cag, vertices = simple_chain()
        path = cag.primary_path()
        reply_edge = [edge for edge in path if edge.child is vertices[4]][0]
        assert reply_edge.kind == MESSAGE_EDGE

    def test_edge_latency(self):
        cag, vertices = simple_chain()
        edge = cag.primary_path()[0]
        assert edge.latency() == pytest.approx(0.1)

    def test_finished_flag_and_is_deformed(self):
        cag, _ = simple_chain()
        assert cag.is_deformed()  # not finished yet
        cag.finish()
        assert cag.finished
        assert not cag.is_deformed()

    def test_disconnected_vertex_marks_deformed(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        stray = activity(ActivityType.SEND, 1.2)
        cag = CAG(begin, KEYS)
        cag.add_vertex(stray)
        cag.finish()
        assert cag.is_deformed()

    def test_validate_passes_for_well_formed_graph(self):
        cag, _ = simple_chain()
        cag.validate()

    def test_validate_rejects_context_edge_across_contexts(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        foreign = activity(ActivityType.SEND, 1.1, host="app", program="java", pid=2, tid=2)
        cag = CAG(begin, KEYS)
        cag.append(foreign, begin, CONTEXT_EDGE)
        with pytest.raises(CAGError):
            cag.validate()

    def test_validate_rejects_message_edge_from_receive(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        receive = activity(ActivityType.RECEIVE, 1.1, host="app", program="java", pid=2, tid=2)
        cag = CAG(begin, KEYS)
        cag.append(receive, begin, MESSAGE_EDGE)  # BEGIN is receive-like: invalid message parent
        with pytest.raises(CAGError):
            cag.validate()


def owned_tracked_objects(cag):
    """Every collector-tracked object reachable from the CAG that is its
    own bookkeeping, and the activities it reaches: the walk stops at
    activities and at the identities they share with the trace's rows
    (``ContextId``, ``MessageId``), at the run's key space (every CAG of
    the run shares it) and at classes."""
    skip = {id(cag.keys)}
    owned, activities = [], []
    stack = [cag]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in skip or isinstance(referent, type):
                continue
            skip.add(id(referent))
            if isinstance(referent, Activity):
                activities.append(referent)
                continue
            if isinstance(referent, (ContextId, MessageId)):
                continue
            stack.append(referent)
            if gc.is_tracked(referent):
                owned.append(referent)
    return owned, activities


class TestColumnarStorage:
    def test_finished_rubis_cag_owns_no_per_vertex_object(self, tiny_run):
        """The Fig. 11 guard, counted rather than timed: a finished CAG at
        rest is one buffer of packed vertex rows, the root, the END and
        three position columns whatever the request's size -- no vertex
        list, no parents map, no ``Edge``.  Asking for edges builds the
        vertices once; later calls hand out the same objects."""
        finished = BackendSpec.batch(window=0.010).correlate(tiny_run.activities()).cags
        small, large = min(finished, key=len), max(finished, key=len)
        assert len(small) < 24 <= len(large)
        held = []
        for cag in (small, large):
            owned, activities = owned_tracked_objects(cag)
            held.append(len(owned))
            # the row buffer and the three position columns
            assert len(owned) <= 4, owned
            assert not any(isinstance(item, (Edge, dict, tuple, list)) for item in owned)
            assert activities == [cag.root, cag.end_activity]
            assert cag.finished and len(cag.edges) >= len(cag) - 1
            vertices = cag.vertices
            assert cag.vertices is vertices and len(vertices) == len(cag)
            assert vertices[0] is cag.root and vertices[-1] is cag.end_activity
            assert {id(edge.child) for edge in cag.edges} <= set(map(id, vertices))
        assert held[0] == held[1]

    def test_position_index_is_dropped_at_finish_and_rebuilt_on_demand(self):
        cag, vertices = simple_chain()
        assert cag._index is not None
        cag.finish()
        assert cag._index is None
        assert len(cag) == 6 and cag.primary_path() and not cag.is_deformed()
        assert cag._index is None  # positional reads never need it
        # packed: the members are the vertices it builds, equal to the
        # objects it was grown from
        built = cag.vertices
        assert list(built) == vertices and built[3] is not vertices[3]
        assert built[3] in cag and activity(ActivityType.SEND, 9.9) not in cag
        assert cag._index is not None
        assert cag.context_parent(built[4]) is built[1]

    def test_views_keep_insertion_order_across_a_splice(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.3)
        upstream = activity(ActivityType.SEND, 1.05, host="app", program="java", pid=2, tid=2)
        late = activity(ActivityType.RECEIVE, 1.1)
        cag = CAG(begin, KEYS)
        cag.append(send, begin, CONTEXT_EDGE)
        cag.append(upstream, begin, MESSAGE_EDGE)
        cag.append(late, upstream, MESSAGE_EDGE)
        cag.splice_context_vertex(begin, send, late)
        assert [(e.parent, e.child, e.kind) for e in cag.edges] == [
            (begin, upstream, MESSAGE_EDGE),
            (upstream, late, MESSAGE_EDGE),
            (begin, late, CONTEXT_EDGE),
            (late, send, CONTEXT_EDGE),
        ]
        assert [e.kind for e in cag.parents_of(late)] == [MESSAGE_EDGE, CONTEXT_EDGE]
        assert [e.child for e in cag.children_of(begin)] == [upstream, late]
        assert cag.parents_of(activity(ActivityType.SEND, 9.9)) == []
        with pytest.raises(CAGError, match="already has a context parent"):
            cag.splice_context_vertex(begin, send, late)
        with pytest.raises(CAGError, match="no context edge"):
            cag.splice_context_vertex(begin, send, upstream)

    @pytest.mark.parametrize("finished", [False, True], ids=["open", "finished"])
    def test_pickled_state_is_positional_and_revives_whole(self, finished):
        cag, vertices = simple_chain()
        if finished:
            cag.finish()
        state = cag.__getstate__()
        assert "root" not in state and "index" not in "".join(state)
        revived = pickle.loads(pickle.dumps(cag))
        assert revived.root is revived.vertices[0] and revived.root == cag.root
        assert revived.cag_id == cag.cag_id and revived.finished is finished
        assert [(e.parent, e.child, e.kind) for e in revived.edges] == [
            (e.parent, e.child, e.kind) for e in cag.edges
        ]
        revived.validate()
        if not finished:
            # An open CAG revived from a checkpoint keeps growing.
            tail = activity(ActivityType.SEND, 1.6)
            revived.append(tail, revived.vertices[-1], CONTEXT_EDGE)
            assert revived.context_parent(tail) == vertices[-1]
