"""Shared test helpers: hand-built activity traces.

Many unit tests need small, fully-controlled activity streams without
running the cluster simulator.  :class:`SyntheticTrace` builds such
streams for a three-tier topology (frontend ``web``, middle ``app``,
backend ``db``) with explicit timestamps, optional clock skew, optional
message segmentation and optional noise -- the knobs the ranker and engine
are sensitive to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.accuracy import GroundTruthRequest
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG, CAGError, CONTEXT_EDGE, MESSAGE_EDGE
from repro.core.interning import ActivityTable
from repro.core.latency import segment_label
from repro.core.log_format import format_record
from repro.topology import ScenarioConfig, WorkloadStages

#: Stage durations shared by the fast integration fixtures.
TINY_STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)


def tiny_config(**overrides) -> ScenarioConfig:
    """A small, fast RUBiS configuration for integration tests.

    Lives here (not in ``conftest.py``) so test modules can import it
    explicitly with ``from helpers import tiny_config``: importing from
    ``conftest`` is ambiguous when pytest's rootdir puts another
    ``conftest.py`` (e.g. ``benchmarks/``) on ``sys.path`` first.
    """
    base = ScenarioConfig(
        "rubis",
        clients=30,
        stages=TINY_STAGES,
        clock_skew=0.001,
        think_time=3.0,
        seed=42,
    )
    return base.with_overrides(**overrides) if overrides else base


def write_node_logs(run, outdir, coarse=False, mutate=None):
    """Write ``run``'s records as one TCP_TRACE log per node under
    ``outdir``; returns the paths in path (= node name) order.

    ``coarse`` rounds every timestamp to 1 ms, which manufactures
    same-timestamp ties between nodes; ``mutate(node, lines) -> lines``
    edits a node's lines before they are written.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for node, records in sorted(run.records_by_node.items()):
        if coarse:
            records = [
                dataclasses.replace(r, timestamp=round(r.timestamp, 3)) for r in records
            ]
        lines = [format_record(record) for record in records]
        if mutate is not None:
            lines = mutate(node, lines)
        paths.append(outdir / f"{node}.log")
        paths[-1].write_text("".join(line + "\n" for line in lines))
    return paths


def lines_conserved(source, activities) -> bool:
    """Every line a ``LogSource`` read landed in exactly one counter."""
    return source.lines_read == (
        len(activities)
        + source.filtered_records
        + source.malformed_lines
        + source.skipped_lines
    )


WEB = ("web", "10.1.0.1", "httpd")
APP = ("app", "10.1.0.2", "java")
DB = ("db", "10.1.0.3", "mysqld")
CLIENT_IP = "10.9.0.1"
FRONTEND_PORT = 80


@dataclass
class SyntheticTrace:
    """Builds activities for hand-crafted requests."""

    #: constant clock offset per hostname (seconds)
    skews: Dict[str, float] = field(default_factory=dict)
    #: maximum bytes per logged send part / receive part (None = no split)
    sender_max: Optional[int] = None
    receiver_max: Optional[int] = None

    activities: List[Activity] = field(default_factory=list)
    ground_truth: Dict[int, GroundTruthRequest] = field(default_factory=dict)
    _ports: int = 40000

    # -- low-level emitters ----------------------------------------------------

    def local(self, hostname: str, timestamp: float) -> float:
        return timestamp + self.skews.get(hostname, 0.0)

    def _emit(
        self,
        activity_type: ActivityType,
        timestamp: float,
        host: Tuple[str, str, str],
        pid: int,
        tid: int,
        message: MessageId,
        request_id: Optional[int],
    ) -> Activity:
        hostname, _ip, program = host
        activity = Activity(
            type=activity_type,
            timestamp=self.local(hostname, timestamp),
            context=ContextId(hostname, program, pid, tid),
            message=message,
            request_id=request_id,
        )
        self.activities.append(activity)
        return activity

    def _split(self, size: int, max_bytes: Optional[int]) -> List[int]:
        if not max_bytes or size <= max_bytes:
            return [size]
        parts = []
        remaining = size
        while remaining > 0:
            parts.append(min(max_bytes, remaining))
            remaining -= max_bytes
        return parts

    def send(
        self,
        at: float,
        src: Tuple[str, str, str],
        src_port: int,
        dst: Tuple[str, str, str],
        dst_port: int,
        size: int,
        pid: int,
        tid: int,
        request_id: Optional[int] = None,
        activity_type: ActivityType = ActivityType.SEND,
        split: bool = True,
    ) -> List[Activity]:
        parts = self._split(size, self.sender_max if split else None)
        emitted = []
        for offset, part in enumerate(parts):
            message = MessageId(src[1], src_port, dst[1], dst_port, part)
            emitted.append(
                self._emit(activity_type, at + offset * 1e-6, src, pid, tid, message, request_id)
            )
        return emitted

    def receive(
        self,
        at: float,
        src: Tuple[str, str, str],
        src_port: int,
        dst: Tuple[str, str, str],
        dst_port: int,
        size: int,
        pid: int,
        tid: int,
        request_id: Optional[int] = None,
        activity_type: ActivityType = ActivityType.RECEIVE,
        split: bool = True,
    ) -> List[Activity]:
        parts = self._split(size, self.receiver_max if split else None)
        emitted = []
        for offset, part in enumerate(parts):
            message = MessageId(src[1], src_port, dst[1], dst_port, part)
            emitted.append(
                self._emit(activity_type, at + offset * 1e-6, dst, pid, tid, message, request_id)
            )
        return emitted

    # -- whole requests -----------------------------------------------------------

    def three_tier_request(
        self,
        request_id: int,
        start: float,
        web_pid: int = 100,
        app_tid: int = 200,
        db_tid: int = 300,
        db_queries: int = 2,
        client_port: Optional[int] = None,
        request_size: int = 400,
        reply_size: int = 2000,
        step: float = 0.001,
    ) -> GroundTruthRequest:
        """Emit the full activity sequence of one three-tier request.

        The timeline uses ``step`` seconds between causally adjacent
        activities; contexts are one httpd worker process, one app-server
        thread and one database connection thread.
        """
        client_port = client_port or self._next_port()
        app_port, db_port = 8080, 3306
        web_app_port = self._next_port()
        app_db_port = self._next_port()
        t = start

        # client -> web (BEGIN); the client side is untraced.
        self.receive(
            t, ("client", CLIENT_IP, "browser"), client_port, WEB, FRONTEND_PORT,
            request_size, web_pid, web_pid, request_id, activity_type=ActivityType.BEGIN,
        )
        begin_ts = self.local(WEB[0], t)
        t += step

        # web -> app
        self.send(t, WEB, web_app_port, APP, app_port, 600, web_pid, web_pid, request_id)
        t += step
        self.receive(t, WEB, web_app_port, APP, app_port, 600, 250, app_tid, request_id)
        t += step

        # app <-> db round trips
        for _query in range(db_queries):
            self.send(t, APP, app_db_port, DB, db_port, 200, 250, app_tid, request_id)
            t += step
            self.receive(t, APP, app_db_port, DB, db_port, 200, 350, db_tid, request_id)
            t += step
            self.send(t, DB, db_port, APP, app_db_port, 900, 350, db_tid, request_id)
            t += step
            self.receive(t, DB, db_port, APP, app_db_port, 900, 250, app_tid, request_id)
            t += step

        # app -> web reply
        self.send(t, APP, app_port, WEB, web_app_port, reply_size, 250, app_tid, request_id)
        t += step
        self.receive(t, APP, app_port, WEB, web_app_port, reply_size, web_pid, web_pid, request_id)
        t += step

        # web -> client (END)
        self.send(
            t, WEB, FRONTEND_PORT, ("client", CLIENT_IP, "browser"), client_port,
            reply_size, web_pid, web_pid, request_id, activity_type=ActivityType.END,
        )
        end_ts = self.local(WEB[0], t)

        truth = GroundTruthRequest(
            request_id=request_id,
            start_time=begin_ts,
            end_time=end_ts,
            contexts={
                (WEB[0], WEB[2], web_pid, web_pid),
                (APP[0], APP[2], 250, app_tid),
                (DB[0], DB[2], 350, db_tid),
            },
            request_type="synthetic",
        )
        self.ground_truth[request_id] = truth
        return truth

    def noise_receive(self, at: float, dst=DB, dst_port: int = 3306, size: int = 300) -> Activity:
        """A receive with no matching send anywhere (pure noise)."""
        message = MessageId("10.9.0.9", self._next_port(), dst[1], dst_port, size)
        return self._emit(ActivityType.RECEIVE, at, dst, 350, 399, message, None)

    # -- views ---------------------------------------------------------------------

    def by_node(self) -> Dict[str, List[Activity]]:
        streams: Dict[str, List[Activity]] = {}
        for activity in self.activities:
            streams.setdefault(activity.node_key, []).append(activity)
        return streams

    def _next_port(self) -> int:
        self._ports += 1
        return self._ports


def cyclic_cag() -> CAG:
    """A finished three-vertex cycle: every ``add_edge`` check is local,
    so nothing stops the last edge from closing the loop."""

    def vertex(kind, timestamp, host, program, tid):
        return Activity(
            type=kind,
            timestamp=timestamp,
            context=ContextId(host, program, tid, tid),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        )

    begin = vertex(ActivityType.BEGIN, 1.0, "web", "httpd", 1)
    send = vertex(ActivityType.SEND, 1.1, "web", "httpd", 1)
    receive = vertex(ActivityType.RECEIVE, 1.2, "app", "java", 2)
    cag = CAG(root=begin)
    cag.append(send, begin, CONTEXT_EDGE)
    cag.append(receive, send, MESSAGE_EDGE)
    cag.add_edge(receive, begin, CONTEXT_EDGE)
    cag.finish()
    return cag


# -- reference derivations -------------------------------------------------------
#
# The per-CAG walks the analysis layer ran before it compiled shapes (and,
# for the order, before the ready set became a heap), frozen here as what
# the plan-derived values are compared against.  They read the CAG only
# through its edge-view API, never through its columns.


def sort_based_topological_order(cag, tie_key=None):
    """Kahn's algorithm with the whole ready list re-sorted (and re-keyed)
    on every push -- what ``CAG.topological_order`` did before its ready
    set became a heap."""
    vertices = list(cag.vertices)
    order_index = {id(vertex): i for i, vertex in enumerate(vertices)}
    if tie_key is None:
        key = lambda v: order_index[id(v)]  # noqa: E731
    else:
        key = lambda v: (tie_key(v), order_index[id(v)])  # noqa: E731
    indegree = {id(vertex): len(cag.parents_of(vertex)) for vertex in vertices}
    ready = sorted((v for v in vertices if indegree[id(v)] == 0), key=key)
    result = []
    while ready:
        vertex = ready.pop(0)
        result.append(vertex)
        for edge in cag.children_of(vertex):
            indegree[id(edge.child)] -= 1
            if indegree[id(edge.child)] == 0:
                ready.append(edge.child)
                ready.sort(key=key)
    if len(result) != len(vertices):
        raise CAGError("CAG contains a cycle")
    return result


def reference_signature(cag):
    """One CAG's pattern signature, derived on its own: canonical order by
    (type, hostname, program, timestamp, insertion index), edges by the
    positions of their endpoints in that order."""

    def tie_key(vertex):
        context = vertex.context
        return (vertex.type.name, context.hostname, context.program, vertex.timestamp)

    order = sort_based_topological_order(cag, tie_key)
    position = {id(vertex): index for index, vertex in enumerate(order)}
    vertex_sigs = tuple(
        (vertex.type.name, vertex.context.hostname, vertex.context.program) for vertex in order
    )
    edge_sigs = tuple(
        sorted(
            (edge.kind, position[id(edge.parent)], position[id(edge.child)])
            for edge in cag.edges
        )
    )
    return (vertex_sigs, edge_sigs)


def reference_segments(cag):
    """One CAG's label -> seconds map, walked edge by edge along its own
    primary path (compare with ``list(d.items())``: label order and every
    float are part of the contract, the store digests hash both)."""
    segments = {}
    for edge in cag.primary_path():
        latency = edge.latency()
        if latency < 0:
            latency = 0.0
        label = segment_label(edge)
        segments[label] = segments.get(label, 0.0) + latency
    return segments


# -- ranker input ---------------------------------------------------------------


def packed(streams) -> ActivityTable:
    """Activities -- a list, or a node -> list mapping -- as the packed
    rows the ranker takes, nodes in mapping order."""
    if isinstance(streams, dict):
        streams = [activity for stream in streams.values() for activity in stream]
    return ActivityTable.from_activities(streams)


# -- correlation results, field for field ---------------------------------------


def assert_results_equal(ours, theirs, but=()) -> int:
    """Two ``CorrelationResult``s equal in every field but the clock (and
    the fields named in ``but``): the CAG lists compared in order by
    their canonical form, ``RankerStats``, ``EngineStats`` and both
    peaks by value.  Returns how many fields were compared."""
    from repro.pipeline import canonical_cags

    compared = 0
    for spec in dataclasses.fields(ours):
        if spec.name == "correlation_time" or spec.name in but:
            continue
        left, right = getattr(ours, spec.name), getattr(theirs, spec.name)
        if spec.name in ("cags", "incomplete_cags"):
            left, right = canonical_cags(left), canonical_cags(right)
        assert left == right, spec.name
        compared += 1
    return compared


# -- ranker window invariants -------------------------------------------------


def undelivered_send_rows(source):
    """Row index -> message key of every send-like row from ``head`` on
    (what the position index must record once it exists)."""
    return {
        index: source.send_key(index)
        for index in range(source.head, len(source._ts))
        if source.send_key(index) is not None
    }


def assert_source_aligned(source) -> None:
    """The cursor invariants of one ``ActivitySource``.

    ``head <= fence <= len``; the source reads its table's own columns
    (no copies), all of one length; every row builds into an object that
    agrees with the columns the ranker reads without building (type,
    timestamp, message key, seq, context key, node key); the unfetched
    part is sorted by (timestamp, seq) (what a fetch bisects and a late
    row is inserted by); and the position index -- absent until
    blockage resolution first reads it -- records exactly the
    undelivered send-like rows, ascending per key, each position
    pointing at a row with that key.
    """
    table = source._table
    ts_column = source._ts
    assert 0 <= source.head <= source.fence <= len(table)
    assert source._types is table._types and ts_column is table._timestamps
    assert source._mkeys is table._mkeys and source._seqs is table._seqs
    assert source._ckeys is table._ckeys
    assert {len(column) for column in table._columns()} == {len(table)}
    for index in range(len(table)):
        built = source.activity(index)
        assert built is not source.activity(index)  # a new object per build
        assert ts_column[index] == built.timestamp
        assert table._types[index] == built.priority == int(built.type)
        assert table._mkeys[index] == built.message_key
        assert table._seqs[index] == built.seq
        assert source.context_key(index) == built.context_key
        assert source.send_key(index) == (built.message_key if built.send_like else None)
        assert source._node_key == built.node_key
    unfetched = list(zip(ts_column[source.fence :], source._seqs[source.fence :]))
    assert unfetched == sorted(unfetched)
    assert source.next_timestamp == (unfetched[0][0] if unfetched else None)
    if source._send_positions is None:
        return
    recorded = {}
    for key, entries in source._send_positions.items():
        assert entries, "an emptied key must leave the index"
        assert list(entries) == sorted(set(entries))
        for position in entries:
            index = position - source._base
            assert source.head <= index < len(table)
            assert source.send_key(index) == key
            recorded[index] = key
    assert recorded == undelivered_send_rows(source)


def assert_ranker_aligned(ranker) -> None:
    """Every source aligned, the undelivered-send registry equal to the
    per-source counts of undelivered send rows, the buffered total equal
    to the queue lengths, and every kernel head column showing its
    queue's head."""
    undelivered = {}
    buffered = 0
    for slot, source in enumerate(ranker._slot_sources):
        assert_source_aligned(source)
        assert ranker._sources[ranker._slot_nodes[slot]] is source
        for key in undelivered_send_rows(source).values():
            undelivered[key] = undelivered.get(key, 0) + 1
        buffered += source.fence - source.head
        if source.head < source.fence:
            head = source.activity(source.head)
            assert ranker._head_ts[slot] == head.timestamp
            assert ranker._head_pri[slot] == head.priority
            assert ranker._head_seq[slot] == head.seq
            if head.priority == 3:
                assert ranker._head_keys[slot] == head.message_key
        else:
            assert ranker._head_ts[slot] == float("inf")
    assert dict(ranker._undelivered_sends) == undelivered
    assert ranker.buffered_count() == buffered


def assert_ranker_drained(ranker) -> None:
    """After a full drain nothing is left in any index."""
    assert_ranker_aligned(ranker)
    assert ranker.exhausted()
    assert not ranker._undelivered_sends
    for source in ranker._slot_sources:
        assert source.head == source.fence == len(source._table)
        assert not source._send_positions
