"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    CagView,
    SyntheticTrace,
    in_space,
    reference_segments,
    reference_signature,
    sort_based_topological_order,
)
from repro.core.accuracy import path_accuracy
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.interning import KeySpace
from repro.pipeline import BackendSpec
from repro.core.latency import LatencyBreakdown, breakdown_for_cag
from repro.core.log_format import RawRecord, format_record, parse_record
from repro.core.patterns import _signature_tie_key, cag_signature
from repro.sim.network import SegmentationPolicy
from repro.topology.generator import entity_exclusive_step

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ip_strategy = st.tuples(
    st.integers(1, 254), st.integers(0, 254), st.integers(0, 254), st.integers(1, 254)
).map(lambda parts: ".".join(str(part) for part in parts))

record_strategy = st.builds(
    RawRecord,
    timestamp=st.floats(min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False),
    hostname=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
    program=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    pid=st.integers(1, 2**22),
    tid=st.integers(1, 2**22),
    direction=st.sampled_from(["SEND", "RECEIVE"]),
    src_ip=ip_strategy,
    src_port=st.integers(1, 65535),
    dst_ip=ip_strategy,
    dst_port=st.integers(1, 65535),
    size=st.integers(0, 10**9),
    request_id=st.one_of(st.none(), st.integers(1, 10**9)),
)


class TestLogFormatProperties:
    @given(record=record_strategy)
    @settings(max_examples=200, **COMMON)
    def test_format_parse_round_trip(self, record):
        parsed = parse_record(format_record(record))
        assert parsed.hostname == record.hostname
        assert parsed.program == record.program
        assert (parsed.pid, parsed.tid) == (record.pid, record.tid)
        assert parsed.direction == record.direction
        assert (parsed.src_ip, parsed.src_port) == (record.src_ip, record.src_port)
        assert (parsed.dst_ip, parsed.dst_port) == (record.dst_ip, record.dst_port)
        assert parsed.size == record.size
        assert parsed.request_id == record.request_id
        assert abs(parsed.timestamp - record.timestamp) < 1e-5


class TestSegmentationProperties:
    @given(
        size=st.integers(0, 10**6),
        sender=st.integers(1, 20_000),
        receiver=st.integers(1, 20_000),
    )
    @settings(max_examples=200, **COMMON)
    def test_parts_conserve_bytes_and_respect_bounds(self, size, sender, receiver):
        policy = SegmentationPolicy(sender_max_bytes=sender, receiver_max_bytes=receiver)
        sender_parts = policy.sender_parts(size)
        receiver_parts = policy.receiver_parts(size)
        assert sum(sender_parts) == size
        assert sum(receiver_parts) == size
        if size > 0:
            assert all(0 < part <= sender for part in sender_parts)
            assert all(0 < part <= receiver for part in receiver_parts)


class TestLatencyBreakdownProperties:
    @given(
        segments=st.dictionaries(
            st.sampled_from(["a2a", "a2b", "b2b", "b2c", "c2c"]),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, **COMMON)
    def test_percentages_are_normalised(self, segments):
        breakdown = LatencyBreakdown(dict(segments))
        percentages = breakdown.percentages()
        if breakdown.total > 0:
            assert abs(sum(percentages.values()) - 100.0) < 1e-6
        assert all(0.0 <= value <= 100.0 + 1e-9 for value in percentages.values())


class TestCorrelationProperties:
    @given(
        requests=st.integers(1, 10),
        window=st.floats(min_value=1e-4, max_value=50.0, allow_nan=False),
        skew=st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
        queries=st.integers(1, 4),
        spacing=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=60, **COMMON)
    def test_tracer_is_exact_for_any_window_skew_and_load(
        self, requests, window, skew, queries, spacing
    ):
        """The paper's central claim: correct causal paths for any positive
        window size and any bounded clock skew."""
        trace = SyntheticTrace(skews={"app": skew, "db": -skew})
        # Contexts rotate mod 3, so requests i and i+3 share a worker.  An
        # execution entity serves one request at a time (the paper's model;
        # no tracer can untangle two requests interleaved in one thread),
        # so pick the intra-request step small enough that a request ends
        # before the same worker's next one begins, while still letting
        # requests in *different* contexts overlap freely.  The validity
        # rule is shared with the scenario generator.
        step = entity_exclusive_step(spacing, queries)
        for index in range(requests):
            trace.three_tier_request(
                request_id=index + 1,
                start=0.5 + index * spacing,
                web_pid=100 + index % 3,
                app_tid=200 + index % 3,
                db_tid=300 + index % 3,
                db_queries=queries,
                step=step,
            )
        result = BackendSpec.batch(window=window).correlate(trace.activities)
        report = path_accuracy(result.cags, trace.ground_truth)
        assert report.accuracy == 1.0
        assert report.false_positives == 0
        for cag in result.cags:
            cag.validate()

    @given(
        requests=st.integers(2, 6),
        seg=st.integers(120, 900),
    )
    @settings(max_examples=40, **COMMON)
    def test_segmentation_never_breaks_paths(self, requests, seg):
        trace = SyntheticTrace(sender_max=seg, receiver_max=max(64, int(seg * 0.6)))
        for index in range(requests):
            trace.three_tier_request(request_id=index + 1, start=0.2 + index * 0.05)
        result = BackendSpec.batch(window=0.01).correlate(trace.activities)
        assert path_accuracy(result.cags, trace.ground_truth).accuracy == 1.0

    @given(requests=st.integers(2, 8), queries=st.integers(1, 3))
    @settings(max_examples=40, **COMMON)
    def test_isomorphic_requests_share_one_signature(self, requests, queries):
        trace = SyntheticTrace()
        for index in range(requests):
            trace.three_tier_request(
                request_id=index + 1,
                start=index * 1.0,
                web_pid=100 + index,
                app_tid=200 + index,
                db_tid=300 + index,
                db_queries=queries,
            )
        result = BackendSpec.batch(window=0.01).correlate(trace.activities)
        signatures = {cag_signature(cag) for cag in result.cags}
        assert len(signatures) == 1

    @given(requests=st.integers(1, 6))
    @settings(max_examples=30, **COMMON)
    def test_breakdown_total_matches_duration_without_skew(self, requests):
        trace = SyntheticTrace()
        for index in range(requests):
            trace.three_tier_request(request_id=index + 1, start=index * 0.7)
        result = BackendSpec.batch(window=0.01).correlate(trace.activities)
        for cag in result.cags:
            breakdown = breakdown_for_cag(cag)
            assert abs(breakdown.total - cag.duration()) < 1e-9


@st.composite
def fanout_join_cags(draw):
    """A frontend that fans out to ``width`` workers per stage and joins
    their replies, with vertices and edges inserted in a drawn order.

    Timestamps, worker hosts and worker programs come from small pools,
    so concurrent branches share fingerprints and tie on the signature
    key, down to the timestamp and the insertion index; the insertion
    order is not topological, so the ready set really is a set.  The
    vertices are a key space's rows, so the CAG gets shape plans.
    """
    stamps = st.sampled_from([1.0, 1.5, 2.0])
    programs = st.sampled_from(["java", "mysqld"])
    hosts = st.sampled_from(["worker0", "worker1"])  # after "web": replies overlap

    def vertex(kind, host, program, tid):
        return Activity(
            type=kind,
            timestamp=draw(stamps),
            context=ContextId(host, program, 1, tid),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        )

    root = vertex(ActivityType.BEGIN, "web", "httpd", 1)
    vertices, edges = [], []
    front = root
    for stage in range(draw(st.integers(1, 3))):
        replies = []
        for branch in range(draw(st.integers(1, 4))):
            worker = (draw(hosts), draw(programs), 10 * stage + branch)
            send = vertex(ActivityType.SEND, "web", "httpd", 1)
            receive = vertex(ActivityType.RECEIVE, *worker)
            reply = vertex(ActivityType.SEND, *worker)
            vertices += [send, receive, reply]
            edges += [
                (front, send, CONTEXT_EDGE),
                (send, receive, MESSAGE_EDGE),
                (receive, reply, CONTEXT_EDGE),
            ]
            front = send
            replies.append(reply)
        for reply in replies:
            join = vertex(ActivityType.RECEIVE, "web", "httpd", 1)
            vertices.append(join)
            edges += [(front, join, CONTEXT_EDGE), (reply, join, MESSAGE_EDGE)]
            front = join
    end = vertex(ActivityType.END, "web", "httpd", 1)
    vertices.append(end)
    edges.append((front, end, CONTEXT_EDGE))

    keys = KeySpace()
    rows = dict(zip(map(id, [root, *vertices]), in_space(keys, root, *vertices)))
    cag = CAG(root=rows[id(root)], keys=keys)
    for item in draw(st.permutations(vertices)):
        cag.add_vertex(rows[id(item)])
    for parent, child, kind in draw(st.permutations(edges)):
        cag.add_edge(rows[id(parent)], rows[id(child)], kind)
    return cag


class TestTopologicalOrderProperties:
    @given(cag=fanout_join_cags())
    @settings(max_examples=150, **COMMON)
    def test_heap_ready_set_equals_the_sort_based_order(self, cag):
        cag.validate()
        view = CagView(cag)
        for tie_key in (None, _signature_tie_key):
            expected = sort_based_topological_order(view, tie_key)
            actual = view.topological_order(tie_key=tie_key)
            assert [id(v) for v in actual] == [id(v) for v in expected]
            position = {id(v): i for i, v in enumerate(actual)}
            assert all(
                position[id(edge.parent)] < position[id(edge.child)]
                for edge in view.edges
            )


def retimed_twin(cag, stamps):
    """The same labelled structure built in the same order, in the same key
    space -- so the same shape key -- with every timestamp replaced."""
    originals = cag.vertices
    clones = in_space(
        cag.keys,
        *(
            Activity(type=v.type, timestamp=stamp, context=v.context, message=v.message)
            for v, stamp in zip(originals, stamps)
        ),
    )
    twin = CAG(root=clones[0], keys=cag.keys)
    for clone in clones[1:]:
        twin.add_vertex(clone)
    for parent, child, kind in cag.edge_positions():
        twin.add_edge(clones[parent], clones[child], kind)
    return twin


class TestShapePlanProperties:
    @given(cag=fanout_join_cags(), data=st.data())
    @settings(max_examples=150, **COMMON)
    def test_plan_derived_values_equal_the_per_cag_reference(self, cag, data):
        """Same-fingerprint branches with tied timestamps are the common
        case here, so this is mostly the timestamp-decided guard at work:
        a twin with other timestamps shares the plan and must still get
        the signature its own timestamps give it."""
        stamps = data.draw(
            st.lists(
                st.sampled_from([1.0, 1.5, 2.0]), min_size=len(cag), max_size=len(cag)
            )
        )
        twin = retimed_twin(cag, stamps)
        for graph in (cag, twin):
            expected = reference_signature(graph)
            assert cag_signature(graph) == expected
            assert cag_signature(graph) is graph.keys.signatures[expected]
            assert list(breakdown_for_cag(graph).segments.items()) == list(
                reference_segments(graph).items()
            )
        assert twin.analysis.plan is cag.analysis.plan
        plan = cag.analysis.plan
        if plan is not None and plan.signature is not None:
            assert not plan.timestamp_decided
            assert cag_signature(twin) is cag_signature(cag) is plan.signature
