"""Parsing and classification of raw TCP_TRACE records.

The paper's instrumentation module (TCP_TRACE, built on SystemTap) writes
one line per kernel send/receive:

    timestamp hostname program_name ProcessID ThreadID SEND|RECEIVE \
        sender_ip:port-receiver_ip:port message_size

PreciseTracer then transforms those raw records into typed activities:
SEND and RECEIVE pass through directly, while BEGIN and END are recognised
from the communication channel -- a RECEIVE arriving at a configured
frontend endpoint from an external client marks the start of a request,
and the SEND on the same connection in the opposite direction marks its
end (Section 3.1).

This module provides:

* :class:`RawRecord` -- the parsed raw line,
* :func:`format_record` / :func:`parse_record` -- serialisation round trip,
* :class:`FrontendSpec` + :class:`ActivityClassifier` -- the raw-to-typed
  transformation, configured only with network-level knowledge (the
  frontend ip:port and, optionally, which subnets are internal);
* :meth:`ActivityClassifier.pack_lines` -- the path every text entry
  point takes from log lines to the packed
  :class:`~repro.core.interning.ActivityTable` rows the ranker consumes:
  one loop that splits each line once and remembers, per distinct
  context and per distinct connection, what the rules above answered.
  :func:`parse_record` + :meth:`ActivityClassifier.classify` remain the
  definition that loop is tested against and falls back to;
  :meth:`ActivityClassifier.classify_lines` is the same loop for a
  caller that wants the rows as objects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import isfinite
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .activity import Activity, ActivityType, ContextId, MessageId, draw_seqs
from .interning import INTERNER, NO_REQUEST, REQUEST_LIMIT, ActivityTable


class LogFormatError(ValueError):
    """Raised when a TCP_TRACE line cannot be parsed."""


@dataclass(frozen=True)
class RawRecord:
    """A parsed TCP_TRACE log line, before BEGIN/END classification."""

    timestamp: float
    hostname: str
    program: str
    pid: int
    tid: int
    direction: str  # "SEND" or "RECEIVE"
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    size: int
    request_id: Optional[int] = None

    def context(self) -> ContextId:
        return ContextId(self.hostname, self.program, self.pid, self.tid)

    def message(self) -> MessageId:
        return MessageId(self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.size)


def format_record(record: RawRecord) -> str:
    """Render a record in the original TCP_TRACE textual format."""
    line = (
        f"{record.timestamp:.6f} {record.hostname} {record.program} "
        f"{record.pid} {record.tid} {record.direction} "
        f"{record.src_ip}:{record.src_port}-{record.dst_ip}:{record.dst_port} "
        f"{record.size}"
    )
    if record.request_id is not None:
        # Ground-truth annotation used only by the accuracy evaluation;
        # the tracer itself ignores it (black-box principle).
        line += f" #rid={record.request_id}"
    return line


def parse_record(line: str) -> RawRecord:
    """Parse one TCP_TRACE line into a :class:`RawRecord`.

    Raises :class:`LogFormatError` on malformed input.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        raise LogFormatError(f"not a record: {line!r}")

    request_id: Optional[int] = None
    if " #rid=" in text:
        text, _, rid_text = text.rpartition(" #rid=")
        try:
            request_id = int(rid_text)
        except ValueError as exc:
            raise LogFormatError(f"bad request id in {line!r}") from exc
        if not NO_REQUEST < request_id < REQUEST_LIMIT:
            # the request-id column is int64, and NO_REQUEST its None
            raise LogFormatError(f"request id outside int64 in {line!r}")

    parts = text.split()
    if len(parts) != 8:
        raise LogFormatError(f"expected 8 fields, got {len(parts)}: {line!r}")

    (ts_text, hostname, program, pid_text, tid_text, direction, channel, size_text) = parts

    if direction not in ("SEND", "RECEIVE"):
        raise LogFormatError(f"bad direction {direction!r} in {line!r}")

    try:
        timestamp = float(ts_text)
        pid = int(pid_text)
        tid = int(tid_text)
        size = int(size_text)
    except ValueError as exc:
        raise LogFormatError(f"bad numeric field in {line!r}") from exc
    if not isfinite(timestamp):
        # float() accepts nan / inf / 1e400; a NaN timestamp breaks the
        # per-node sort and every bisect downstream without an error.
        raise LogFormatError(f"non-finite timestamp in {line!r}")
    if size < 0:
        raise LogFormatError(f"negative size in {line!r}")

    try:
        src_ip, src_port, dst_ip, dst_port = _split_channel(channel)
    except ValueError as exc:
        raise LogFormatError(f"bad channel {channel!r} in {line!r}") from exc

    return RawRecord(
        timestamp=timestamp,
        hostname=hostname,
        program=program,
        pid=pid,
        tid=tid,
        direction=direction,
        src_ip=src_ip,
        src_port=src_port,
        dst_ip=dst_ip,
        dst_port=dst_port,
        size=size,
        request_id=request_id,
    )


def _split_channel(channel: str) -> Tuple[str, int, str, int]:
    """``ip:port-ip:port`` -> (src_ip, src_port, dst_ip, dst_port).

    Raises :class:`ValueError` when the token has another shape.
    """
    src_text, dst_text = channel.split("-", 1)
    src_ip, src_port_text = src_text.rsplit(":", 1)
    dst_ip, dst_port_text = dst_text.rsplit(":", 1)
    return src_ip, int(src_port_text), dst_ip, int(dst_port_text)


def parse_log(lines: Iterable[str]) -> Iterator[RawRecord]:
    """Parse an iterable of lines, skipping blanks and ``#`` comments."""
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_record(stripped)


class LineAssembler:
    """Reassemble complete log lines from arbitrarily-chunked text.

    Online ingestion (tailing a growing TCP_TRACE file, reading from a
    socket) delivers text in chunks whose boundaries do not respect line
    boundaries.  ``feed()`` buffers the trailing partial line and returns
    only the lines that are known to be complete; ``flush()`` releases the
    final unterminated line at end of stream.

    Used by :class:`repro.stream.FileTailSource`.
    """

    def __init__(self) -> None:
        self._tail: str = ""

    def feed(self, chunk: str) -> List[str]:
        """Absorb ``chunk`` and return every newly-completed line."""
        if not chunk:
            return []
        buffered = self._tail + chunk
        lines = buffered.split("\n")
        self._tail = lines.pop()  # "" when the chunk ended on a newline
        return lines

    def flush(self) -> List[str]:
        """Return the buffered partial line, if any (end of stream)."""
        if not self._tail:
            return []
        line, self._tail = self._tail, ""
        return [line]

    @property
    def pending(self) -> str:
        """The currently-buffered partial line (for inspection/tests)."""
        return self._tail


@dataclass(frozen=True)
class FrontendSpec:
    """Network-level description of the service's entry point.

    ``ip``/``port`` identify the frontend listening socket (e.g. the web
    server's port 80).  ``internal_ips`` lists the addresses of the data
    centre's own nodes; peers outside this set are considered external
    clients.  Both pieces are application independent -- they come from
    the deployment, not from the application's protocols.
    """

    ip: str
    port: int
    internal_ips: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port must be in 1..65535, got {self.port}")

    @classmethod
    def parse(cls, text: str) -> "FrontendSpec":
        """The spec an ``"IP:PORT"`` string names (the split is at the
        last ``:``)."""
        ip, sep, port = text.rpartition(":")
        if not sep or not ip:
            raise ValueError(f"expected IP:PORT, got {text!r}")
        try:
            number = int(port)
        except ValueError:
            raise ValueError(f"port must be an integer, got {port!r}") from None
        return cls(ip=ip, port=number)

    def is_frontend_endpoint(self, ip: str, port: int) -> bool:
        return ip == self.ip and port == self.port

    def is_external(self, ip: str) -> bool:
        if not self.internal_ips:
            # Without an explicit node list we only rely on the port rule,
            # exactly like the paper's description.
            return True
        return ip not in self.internal_ips


# Memo entries of ActivityClassifier.pack_lines that carry no ids: a
# context / channel the attribute filter drops, and a context no row has
# been packed for yet (the interner has not been asked).
_IGNORED_CONTEXT = (True, -1)
_UNSEEN_CONTEXT = (False, -1)
_IGNORED_CHANNEL = (True, "", 0, "", 0, -1, ActivityType.SEND, ActivityType.RECEIVE, {})

#: Most distinct size tokens a connection's memo entry remembers a
#: :class:`MessageId` for; past it, one is built per line.  What a
#: connection whose sizes never repeat can waste, in inserts and in
#: retained entries, is this many.
_SIZES_PER_CONNECTION = 64


@dataclass
class ActivityClassifier:
    """Transform raw records into typed activities (Section 3.1).

    * a RECEIVE whose destination is a frontend endpoint and whose source
      is an external client becomes ``BEGIN``;
    * a SEND whose *source* is a frontend endpoint and whose destination
      is an external client becomes ``END``;
    * every other record keeps its SEND/RECEIVE type.

    The classifier also implements the attribute-based noise filter of
    Section 4.3: records whose program name, IP or port matches a
    configured deny list are dropped before they ever reach the ranker.
    """

    frontends: Sequence[FrontendSpec] = field(default_factory=list)
    ignore_programs: Set[str] = field(default_factory=set)
    ignore_ports: Set[int] = field(default_factory=set)
    ignore_ips: Set[str] = field(default_factory=set)

    #: number of records dropped by the attribute filter, for reporting
    filtered_count: int = 0
    #: lines :meth:`classify_lines` could not parse (tolerant mode only)
    malformed_count: int = field(default=0, init=False)
    #: blank and ``#`` comment lines :meth:`classify_lines` passed over
    skipped_count: int = field(default=0, init=False)

    # What the rules answered, per distinct raw token (pack_lines).
    _context_memo: Dict[Tuple[str, str, str, str], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _channel_memo: Dict[str, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def classify(self, record: RawRecord) -> Optional[Activity]:
        """Return the typed activity for ``record``, or ``None`` if it is
        filtered out by the attribute-based noise filter."""
        ends = (record.src_ip, record.src_port, record.dst_ip, record.dst_port)
        if record.program in self.ignore_programs or self._ignored_channel(*ends):
            self.filtered_count += 1
            return None

        return Activity(
            type=self._classify_type(record.direction, *ends),
            timestamp=record.timestamp,
            context=record.context(),
            message=record.message(),
            request_id=record.request_id,
        )

    def classify_all(self, records: Iterable[RawRecord]) -> List[Activity]:
        """Classify a batch of records, silently dropping filtered ones."""
        activities: List[Activity] = []
        for record in records:
            activity = self.classify(record)
            if activity is not None:
                activities.append(activity)
        return activities

    def classify_lines(
        self, lines: Iterable[str], strict: bool = False
    ) -> List[Activity]:
        """Log text to typed activities, in line order: :meth:`pack_lines`
        with every row built into its object."""
        return list(self.pack_lines(lines, strict))

    def pack_lines(self, lines: Iterable[str], strict: bool = False) -> ActivityTable:
        """Log text to the packed rows of an
        :class:`~repro.core.interning.ActivityTable`, one pass, in line
        order.

        Equal, field for field and count for count, to ``parse_record`` +
        :meth:`classify` on every line (the differential test in
        ``tests/test_ingest_fused.py`` holds it to that, reading each row
        back as the object it becomes), but a trace of any length has
        only as many distinct contexts and connections as the deployment
        has threads and sockets, so the per-line work is: split once;
        look the four context tokens up in one dict and the raw
        ``ip:port-ip:port`` token in another; ``float()`` the timestamp
        and ``int()`` the size; append the values and the keys the two
        entries carry to the columns.  The objects built from the rows of
        one context share the interner's canonical :class:`ContextId`,
        every row of one connection the same ip strings, and every row of
        one connection *and size token* the same frozen
        :class:`MessageId`: the channel
        entry carries a ``size token -> MessageId`` table, written only by
        lines that produced a row and at most
        :data:`_SIZES_PER_CONNECTION` entries long (a connection with
        more distinct sizes builds the rest per line).  A row's ``seq`` is
        drawn in line order, so ``table.activity(row)`` is, slot for
        slot, the object :meth:`classify` would have built -- whenever it
        is asked for (the ranker asks when it delivers the row; a row it
        discards as noise never becomes an object).  ``seq`` cannot wait
        that long: the rank kernels break ties between node heads on it
        while the rows are still packed.

        A miss asks the rules of this class once -- ``ignore_programs``
        for a context, :func:`_split_channel`, :meth:`_ignored_channel`
        and :meth:`_classify_type` for a channel -- and remembers the
        answer under the raw token.  A line that is not the plain shape
        (eight fields, optionally followed by `` #rid=<int>``) or fails
        any check (a ``#rid`` outside int64 included: the request-id
        column cannot hold it) raises ``ValueError`` inside the loop and
        is handed to the reference path unchanged: blank and ``#`` lines
        count as ``skipped_count``, whatever :func:`parse_record` rejects
        is re-raised when ``strict`` and counted in ``malformed_count``
        otherwise, and the activity a line it accepts makes packs its
        values at its log position like any other row.  Validation comes
        before the filter, so a bad line from an ignored program is
        malformed, not filtered.

        :data:`~repro.core.interning.INTERNER` hears of a context or a
        connection only when the first row of it is packed, exactly as
        on the reference path: lines the filter drops and malformed
        lines leave it alone.  For kept traffic the two tables therefore
        grow with what the interner already keeps for the life of the
        process (plus each kept connection's bounded size table).
        Dropped traffic costs a dict slot per distinct token, so that
        noise stays on the fast path -- one shared entry when the token
        itself is what the filter matched -- and a line rejected for its
        timestamp, direction or size costs nothing.  There is no
        eviction.  The rule sets (``frontends``, ``ignore_*``) must not
        change once lines have been classified.
        """
        table = ActivityTable()
        context_memo = self._context_memo
        channel_memo = self._channel_memo
        sizes_limit = _SIZES_PER_CONNECTION
        filtered = 0
        put_type = table._types.append
        put_timestamp = table._timestamps.append
        put_context_key = table._ckeys.append
        put_message_key = table._mkeys.append
        put_request_id = table._request_ids.append
        put_message = table._messages.append
        no_request, request_limit = NO_REQUEST, REQUEST_LIMIT

        def settle() -> None:
            # ``seq`` of the rows appended since the last call, in one go.
            # Called before anything else draws from the counter, so seq
            # stays log position.
            due = len(table._types) - len(table._seqs)
            table._seqs.fromlist(list(draw_seqs(due)))

        try:
            for line in lines:
                head, marker, tail = line.rpartition(" #rid=")
                try:
                    if marker:
                        request_id = int(tail)
                        if not no_request < request_id < request_limit:
                            raise ValueError
                        fields = head.split()
                    else:
                        request_id = None
                        fields = tail.split()
                    (
                        ts_text,
                        hostname,
                        program,
                        pid_text,
                        tid_text,
                        direction,
                        channel,
                        size_text,
                    ) = fields
                    timestamp = float(ts_text)
                    size = int(size_text)
                    if direction == "SEND":
                        sending = True
                    elif direction == "RECEIVE":
                        sending = False
                    else:
                        raise ValueError
                    if size < 0 or not isfinite(timestamp):
                        raise ValueError
                    entry = context_memo.get((hostname, program, pid_text, tid_text))
                    if entry is None:
                        entry = self._remember_context(
                            hostname, program, pid_text, tid_text
                        )
                    ignored_program, context_key = entry
                    entry = channel_memo.get(channel)
                    if entry is None:
                        entry = self._remember_channel(channel)
                    (
                        ignored_channel,
                        src_ip,
                        src_port,
                        dst_ip,
                        dst_port,
                        message_key,
                        send_type,
                        receive_type,
                        sizes,
                    ) = entry
                except ValueError:
                    # not the plain shape: the reference path decides
                    settle()
                    activity = self._classify_odd_line(line, strict)
                    if activity is not None:
                        table.append(activity)
                else:
                    if ignored_program or ignored_channel:
                        filtered += 1
                        continue
                    # The first activity of a context / connection: only
                    # now does the interner hear of it.
                    if context_key < 0:
                        context_key = self._remember_context(
                            hostname, program, pid_text, tid_text, intern=True
                        )[1]
                    if message_key < 0:
                        entry = self._remember_channel(channel, intern=True)
                        message_key, sizes = entry[5], entry[8]
                    message = sizes.get(size_text)
                    if message is None:
                        message = MessageId(src_ip, src_port, dst_ip, dst_port, size)
                        if len(sizes) < sizes_limit:
                            sizes[size_text] = message
                    put_type(send_type if sending else receive_type)
                    put_timestamp(timestamp)
                    put_context_key(context_key)
                    put_message_key(message_key)
                    put_request_id(no_request if request_id is None else request_id)
                    put_message(message)
        finally:
            self.filtered_count += filtered
            settle()
        return table

    # -- internals ---------------------------------------------------------

    def _classify_odd_line(self, line: str, strict: bool) -> Optional[Activity]:
        """The reference path, for a line the loop did not take."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            self.skipped_count += 1
            return None
        try:
            record = parse_record(stripped)
        except LogFormatError:
            if strict:
                raise
            self.malformed_count += 1
            return None
        return self.classify(record)

    def _remember_context(
        self,
        hostname: str,
        program: str,
        pid_text: str,
        tid_text: str,
        intern: bool = False,
    ) -> tuple:
        """Memo entry for a context: (ignored, context_key).
        ``ValueError`` on a non-integer pid/tid.

        A context first seen is only validated and put to the program
        filter; its key stays ``-1`` until the loop asks again with
        ``intern`` for the first line of it that yields a row, so ignored
        and malformed traffic never reaches the interner."""
        key = (hostname, program, int(pid_text), int(tid_text))
        if intern:
            entry = (False, INTERNER.intern_context_key(key))
        elif program in self.ignore_programs:
            entry = _IGNORED_CONTEXT
        else:
            entry = _UNSEEN_CONTEXT
        self._context_memo[(hostname, program, pid_text, tid_text)] = entry
        return entry

    def _remember_channel(self, channel: str, intern: bool = False) -> tuple:
        """Memo entry for a channel token: (ignored, src_ip, src_port,
        dst_ip, dst_port, message_key, type of a SEND on it, type of a
        RECEIVE on it, size token -> MessageId).  ``ValueError`` on a
        malformed token.  As for a context, ``message_key`` is ``-1``
        until ``intern``; an ignored channel keeps no fields at all."""
        ends = _split_channel(channel)
        if self._ignored_channel(*ends):
            entry = _IGNORED_CHANNEL
        else:
            src_ip, src_port, dst_ip, dst_port = ends
            ends = (sys.intern(src_ip), src_port, sys.intern(dst_ip), dst_port)
            entry = (
                False,
                *ends,
                INTERNER.intern_message_key(ends) if intern else -1,
                self._classify_type("SEND", *ends),
                self._classify_type("RECEIVE", *ends),
                {},
            )
        self._channel_memo[channel] = entry
        return entry

    def _ignored_channel(
        self, src_ip: str, src_port: int, dst_ip: str, dst_port: int
    ) -> bool:
        if src_ip in self.ignore_ips or dst_ip in self.ignore_ips:
            return True
        return src_port in self.ignore_ports or dst_port in self.ignore_ports

    def _classify_type(
        self, direction: str, src_ip: str, src_port: int, dst_ip: str, dst_port: int
    ) -> ActivityType:
        for frontend in self.frontends:
            if (
                direction == "RECEIVE"
                and frontend.is_frontend_endpoint(dst_ip, dst_port)
                and frontend.is_external(src_ip)
            ):
                return ActivityType.BEGIN
            if (
                direction == "SEND"
                and frontend.is_frontend_endpoint(src_ip, src_port)
                and frontend.is_external(dst_ip)
            ):
                return ActivityType.END
        if direction == "SEND":
            return ActivityType.SEND
        return ActivityType.RECEIVE


def load_activities(
    lines: Iterable[str],
    classifier: ActivityClassifier,
) -> List[Activity]:
    """Convenience helper: parse raw lines and classify them in one pass.

    Blank and ``#`` lines are skipped; a malformed line raises
    :class:`LogFormatError`.
    """
    return classifier.classify_lines(lines, strict=True)
