"""Unit tests for the Component Activity Graph abstraction."""

import gc
import pickle

import pytest

from helpers import CagView, in_space
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.export import cag_to_dict
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
        assert cag.vertices == (begin, send)
        assert cag.edge_positions() == [(0, 1, CONTEXT_EDGE)]

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
        parents = [edge for edge in cag.edge_positions() if edge[1] == 4]
        assert len(parents) == 2
        kinds = {kind for _parent, _child, kind in parents}
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

    def test_parent_columns(self):
        cag, vertices = simple_chain()
        context_parent, message_parent = cag.parent_columns
        # receive: message parent the SEND, no context parent
        assert message_parent[2] == 1 and context_parent[2] == -1
        # reply receive: one parent per relation
        assert message_parent[4] == 3 and context_parent[4] == 1
        assert list(context_parent) == [-1, 0, -1, 2, 1, 4]
        assert list(message_parent) == [-1, -1, 1, -1, 3, -1]

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

    def test_edge_positions_in_insertion_order(self):
        cag, _ = simple_chain()
        assert cag.edge_positions() == [
            (0, 1, CONTEXT_EDGE),
            (1, 2, MESSAGE_EDGE),
            (2, 3, CONTEXT_EDGE),
            (3, 4, MESSAGE_EDGE),
            (1, 4, CONTEXT_EDGE),
            (4, 5, CONTEXT_EDGE),
        ]
        cag.finish()
        children = [child for parent, child, _kind in cag.edge_positions() if parent == 1]
        assert children == [2, 4]


class TestOrderingAndPaths:
    def test_topological_order_respects_edges(self):
        cag, vertices = simple_chain()
        order = cag.topological_positions()
        assert sorted(order) == list(range(len(vertices)))
        position = {vertex: i for i, vertex in enumerate(order)}
        for parent, child, _kind in cag.edge_positions():
            assert position[parent] < position[child]

    def test_primary_path_covers_every_non_root_vertex(self):
        cag, vertices = simple_chain()
        path = cag.primary_positions()
        assert len(path) == len(vertices) - 1
        children = [child for child, _parent, _kind in path]
        assert children == list(range(1, len(vertices)))

    def test_primary_path_prefers_message_edges(self):
        cag, vertices = simple_chain()
        (reply_edge,) = [row for row in cag.primary_positions() if row[0] == 4]
        assert reply_edge == (4, 3, MESSAGE_EDGE)

    def test_edge_latency(self):
        cag, vertices = simple_chain()
        edge = cag_to_dict(cag)["edges"][0]
        assert (edge["parent"], edge["child"]) == (0, 1)
        assert edge["latency"] == pytest.approx(0.1)

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
        list, no parents map, no edge object.  Reading its edges builds
        nothing that stays, and its vertices are not handed out."""
        finished = BackendSpec.batch(window=0.010).correlate(tiny_run.activities()).cags
        small, large = min(finished, key=len), max(finished, key=len)
        assert len(small) < 24 <= len(large)
        held = []
        for cag in (small, large):
            owned, activities = owned_tracked_objects(cag)
            held.append(len(owned))
            # the row buffer and the three position columns
            assert len(owned) <= 4, owned
            assert not any(isinstance(item, (dict, tuple, list)) for item in owned)
            assert activities == [cag.root, cag.end_activity]
            edges = cag.edge_positions()
            assert cag.finished and len(edges) >= len(cag) - 1
            assert {child for _parent, child, _kind in edges} <= set(range(len(cag)))
            assert owned_tracked_objects(cag) == (owned, activities)
            with pytest.raises(CAGError):
                cag.vertices
        assert held[0] == held[1]

    def test_position_index_is_dropped_at_finish(self):
        cag, vertices = simple_chain()
        assert cag._index is not None
        cag.finish()
        assert cag._index is None
        assert len(cag) == 6 and cag.primary_positions() and not cag.is_deformed()
        cag.validate()
        assert cag._index is None  # positional reads never need it
        # packed: the columns hold what the objects held
        assert list(cag.column("seq")) == [vertex.seq for vertex in vertices]
        assert list(cag.column("timestamp")) == [vertex.timestamp for vertex in vertices]
        assert list(CagView(cag).vertices) == vertices
        with pytest.raises(CAGError):
            vertices[3] in cag

    def test_edges_keep_insertion_order_across_a_splice(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.3)
        upstream = activity(ActivityType.SEND, 1.05, host="app", program="java", pid=2, tid=2)
        late = activity(ActivityType.RECEIVE, 1.1)
        cag = CAG(begin, KEYS)
        cag.append(send, begin, CONTEXT_EDGE)
        cag.append(upstream, begin, MESSAGE_EDGE)
        cag.append(late, upstream, MESSAGE_EDGE)
        cag.splice_in_order(late, send)
        assert cag.edge_positions() == [
            (0, 2, MESSAGE_EDGE),
            (2, 3, MESSAGE_EDGE),
            (0, 3, CONTEXT_EDGE),
            (3, 1, CONTEXT_EDGE),
        ]
        assert [kind for _p, child, kind in cag.edge_positions() if child == 3] == [
            MESSAGE_EDGE,
            CONTEXT_EDGE,
        ]
        assert [child for parent, child, _k in cag.edge_positions() if parent == 0] == [2, 3]
        with pytest.raises(CAGError, match="already has a context parent"):
            cag.splice_in_order(late, send)
        with pytest.raises(CAGError, match="not vertices of this CAG"):
            cag.splice_in_order(activity(ActivityType.RECEIVE, 1.2), send)

    def test_a_splice_before_every_chained_activity_heads_the_chain(self):
        begin = activity(ActivityType.BEGIN, 1.0)
        send = activity(ActivityType.SEND, 1.1)
        first = activity(ActivityType.RECEIVE, 1.4, host="app", program="java", pid=2, tid=2)
        second = activity(ActivityType.SEND, 1.6, host="app", program="java", pid=2, tid=2)
        late = activity(ActivityType.RECEIVE, 1.35, host="app", program="java", pid=2, tid=2)
        cag = CAG(begin, KEYS)
        cag.append(send, begin, CONTEXT_EDGE)
        cag.append(first, send, MESSAGE_EDGE)
        cag.append(second, first, CONTEXT_EDGE)
        cag.append(late, send, MESSAGE_EDGE)
        cag.splice_in_order(late, second)
        # walked back past both chained activities: ``late`` heads the chain
        assert cag.edge_positions()[-1] == (4, 2, CONTEXT_EDGE)
        assert list(cag.parent_columns[0]) == [-1, 0, 4, 2, -1]
        cag.validate()

    @pytest.mark.parametrize("finished", [False, True], ids=["open", "finished"])
    def test_pickled_state_is_positional_and_revives_whole(self, finished):
        cag, vertices = simple_chain()
        if finished:
            cag.finish()
        state = cag.__getstate__()
        assert "root" not in state and "index" not in "".join(state)
        revived = pickle.loads(pickle.dumps(cag))
        assert revived.root == cag.root and revived.end_activity == cag.end_activity
        assert revived.cag_id == cag.cag_id and revived.finished is finished
        assert revived.edge_positions() == cag.edge_positions()
        for name in ("timestamp", "seq", "size", "context_key", "message_key", "priority"):
            assert revived.column(name) == cag.column(name)
        revived.validate()
        if finished:
            assert CagView(revived).vertices == CagView(cag).vertices
        else:
            assert revived.root is revived.vertices[0]
            assert revived.vertices == tuple(vertices)
            # An open CAG revived from a checkpoint keeps growing.
            tail = activity(ActivityType.SEND, 1.6)
            revived.append(tail, revived.vertices[-1], CONTEXT_EDGE)
            assert revived.parent_columns[0][-1] == len(vertices) - 1
