"""Activity model for PreciseTracer.

An *activity* is one interaction event observed in the operating-system
kernel while a component of a multi-tier service handles a request.  The
paper (Section 3.1) defines four activity types:

* ``SEND``    -- a process sent a message on a TCP connection,
* ``RECEIVE`` -- a process received a message on a TCP connection,
* ``BEGIN``   -- the first RECEIVE of a new request at the frontend tier,
* ``END``     -- the SEND of the final response back to the client.

For each activity exactly four attributes are logged: the activity type,
a local timestamp, a *context identifier* (hostname, program name, pid,
tid) and a *message identifier* (sender ip:port, receiver ip:port, size).
This module defines the data structures for those attributes.  Everything
downstream (ranker, engine, CAG) consumes only these objects -- no
application knowledge ever leaks in, which is the paper's core premise.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple


class ActivityType(enum.IntEnum):
    """The four activity types of Section 3.1.

    The integer values encode the candidate-selection priority of the
    ranker's Rule 2 (Section 4.1):

        BEGIN < SEND < END < RECEIVE < MAX

    A *lower* value means the activity should be delivered to the engine
    *earlier* when several queue heads compete.
    """

    BEGIN = 0
    SEND = 1
    END = 2
    RECEIVE = 3
    MAX = 4

    @property
    def is_send_like(self) -> bool:
        """True for activities that put bytes on the wire (SEND, END)."""
        return self in (ActivityType.SEND, ActivityType.END)

    @property
    def is_receive_like(self) -> bool:
        """True for activities that take bytes off the wire (RECEIVE, BEGIN)."""
        return self in (ActivityType.RECEIVE, ActivityType.BEGIN)


#: Rule 2 priority order, exposed for tests and documentation.
RULE2_PRIORITY: Tuple[ActivityType, ...] = (
    ActivityType.BEGIN,
    ActivityType.SEND,
    ActivityType.END,
    ActivityType.RECEIVE,
    ActivityType.MAX,
)

#: ``Activity.priority`` by type value: a tuple index costs a fraction of
#: ``int(type)``, and both constructors pay it once per activity.
_PRIORITY = tuple(int(kind) for kind in ActivityType)


@dataclass(frozen=True, order=True, slots=True)
class ContextId:
    """The execution-entity identifier of an activity.

    The paper uses the tuple (hostname, program name, process id, thread
    id).  Two activities produced by the same process *and* thread share a
    context; the adjacent-context relation is defined within one context.
    """

    hostname: str
    program: str
    pid: int
    tid: int

    def as_tuple(self) -> Tuple[str, str, int, int]:
        """Return the raw 4-tuple used as ``cmap`` key."""
        return (self.hostname, self.program, self.pid, self.tid)

    @property
    def entity(self) -> Tuple[str, str, int, int]:
        """Alias for :meth:`as_tuple` (name used in older call sites)."""
        return self.as_tuple()

    @property
    def component(self) -> Tuple[str, str]:
        """The component identity used for pattern isomorphism.

        Different requests are handled by different worker processes or
        threads of the *same* component, so pattern classification only
        looks at (hostname, program) -- see Section 3.2.
        """
        return (self.hostname, self.program)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.hostname}/{self.program}[{self.pid}:{self.tid}]"


@dataclass(frozen=True, order=True, slots=True)
class MessageId:
    """The message identifier of an activity.

    The paper's tuple is (IP of sender, port of sender, IP of receiver,
    port of receiver, message size).  The size is *not* part of the
    matching key -- segmentation makes sender and receiver sizes differ --
    so :meth:`connection_key` strips it.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    size: int

    def connection_key(self) -> Tuple[str, int, str, int]:
        """Directional connection 4-tuple, the ``mmap`` key."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port)

    def reversed_key(self) -> Tuple[str, int, str, int]:
        """The 4-tuple of the opposite direction on the same connection."""
        return (self.dst_ip, self.dst_port, self.src_ip, self.src_port)

    def undirected_key(self) -> Tuple[Tuple[str, int], Tuple[str, int]]:
        """Connection identity irrespective of direction."""
        ends = sorted([(self.src_ip, self.src_port), (self.dst_ip, self.dst_port)])
        return (ends[0], ends[1])

    def with_size(self, size: int) -> "MessageId":
        """Return a copy carrying a different byte count."""
        return MessageId(self.src_ip, self.src_port, self.dst_ip, self.dst_port, size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.src_ip}:{self.src_port}-"
            f"{self.dst_ip}:{self.dst_port}({self.size}B)"
        )


_activity_counter = itertools.count()


@dataclass(slots=True)
class Activity:
    """One logged kernel interaction event.

    Attributes
    ----------
    type:
        One of :class:`ActivityType`.
    timestamp:
        Local timestamp, in seconds, read from the clock of the node the
        activity was observed on.  Clock skew between nodes is expected
        and tolerated by the algorithm.
    context:
        The execution-entity identifier.
    message:
        The message identifier.  ``size`` is mutated by the engine while
        it merges segmented SEND/RECEIVE parts, so ``Activity`` keeps its
        own mutable ``size`` field initialised from the message id.
    request_id:
        Optional ground-truth request id.  It is *never* consulted by the
        tracing algorithm; it exists purely so that the accuracy
        evaluation (Section 5.2) can compare reconstructed causal paths
        against an oracle, exactly like the paper's modified RUBiS.

    The identity keys (``context_key``, ``message_key``, ``node_key``,
    ``priority``) are looked up on every ranker and engine step, so they
    are stored as plain slot attributes instead of being re-derived
    through properties -- together with ``__slots__`` this is a large
    share of the correlation hot-path speedup.  An object built
    from a packed row (what the ranker delivers) holds the dense ints its
    table's :class:`~repro.core.interning.KeySpace` gives the underlying
    tuple / hostname identity; one built by this constructor belongs to
    no key space and holds the identity itself (the context 4-tuple, the
    connection 4-tuple, the hostname).  Interning is injective, so every
    dict keyed by these attributes behaves the same either way; only the
    hash cost differs.  Code that needs the original identity (digests,
    sampling, export) reads it from the immutable ``context`` /
    ``message`` identifiers -- never from the keys, whose ints are one
    run's key space.  All derived keys are excluded from equality.
    """

    type: ActivityType
    timestamp: float
    context: ContextId
    message: MessageId
    request_id: Optional[int] = None
    seq: int = field(default_factory=lambda: next(_activity_counter))

    # Mutable byte counter used by the engine's n-to-n merging.  It starts
    # as the logged message size and is adjusted as parts are merged.
    size: int = field(default=-1)

    #: Key used by the ``cmap`` (adjacent-context matching).
    context_key: object = field(init=False, repr=False, compare=False)
    #: Key used by the ``mmap`` (message matching).  SEND
    #: activities are stored under their own direction; a RECEIVE looks up
    #: the *same* direction (the sender's ip:port still appears first in
    #: the receiver's log record), so both sides share one key.  Resolve
    #: the raw 4-tuple via ``message.connection_key()``.
    message_key: object = field(init=False, repr=False, compare=False)
    #: Key of the ranker queue this activity belongs to.  The
    #: paper groups activities "according to the IP addresses of the
    #: context identifiers"; activities observed on one node share one
    #: local clock and therefore one queue.  We key by the hostname, which
    #: identifies the node just as well as its IP.
    node_key: object = field(init=False, repr=False, compare=False)
    #: Rule 2 priority (smaller is delivered earlier).
    priority: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        context = self.context
        message = self.message
        if self.size < 0:
            self.size = message.size
        self.context_key = context.as_tuple()
        self.message_key = message.connection_key()
        self.node_key = context.hostname
        self.priority = _PRIORITY[self.type]

    @classmethod
    def keyed(
        cls,
        type: ActivityType,
        timestamp: float,
        context: ContextId,
        message: MessageId,
        request_id: Optional[int],
        context_key,
        message_key,
        node_key,
        seq: Optional[int] = None,
    ) -> "Activity":
        """Build an activity whose keys the caller already holds.

        What ``Activity(type, timestamp, context, message, request_id)``
        produces, but with the given keys: a packed row's ids in its
        table's key space (:meth:`repro.core.interning.ActivityTable.
        activity`), or the keys of another activity the new one stands
        for (the engine's split receive part).  The keys **must** be one
        key space's ids for ``context`` / ``message.connection_key()`` /
        ``context.hostname``, or those identities themselves; nothing
        here checks that.  ``seq`` is drawn from the same counter as the
        dataclass constructor, so creation order stays one total order
        across both -- unless the caller passes the one it drew when it
        read the line (a packed row becomes an object long after its
        neighbours).
        """
        self = object.__new__(cls)
        self.type = type
        self.timestamp = timestamp
        self.context = context
        self.message = message
        self.request_id = request_id
        self.seq = next(_activity_counter) if seq is None else seq
        self.size = message.size
        self.context_key = context_key
        self.message_key = message_key
        self.node_key = node_key
        self.priority = _PRIORITY[type]
        return self

    # -- identity helpers -------------------------------------------------

    @property
    def component(self) -> Tuple[str, str]:
        """(hostname, program) of the observing component."""
        return self.context.component

    def is_noise_candidate(self) -> bool:
        """Whether this activity could possibly be classified as noise.

        Only receive-like activities are ever discarded by ``is_noise``;
        send-like noise is harmless because nothing will ever match it and
        it simply ages out of the mmap.
        """
        return self.type is ActivityType.RECEIVE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Activity({self.type.name}, t={self.timestamp:.6f}, "
            f"ctx={self.context}, msg={self.message})"
        )


#: Sort key for activities observed on one node: the node's local clock,
#: ties broken by *log position*.  ``seq`` is drawn at creation, and every
#: ingest path creates a node's activities in the order its log holds
#: them (``classify_lines`` and ``classify_all`` go line by line,
#: ``pack_lines`` draws a packed row's ``seq`` in line order too,
#: ``ActivityTable`` rows keep their ``seq``, a row that arrives in a
#: later chunk is later in the log, and ``LogSource.chunks()`` -- which
#: reads its files interleaved -- re-draws it in release order,
#: ``ActivityTable.restamp``), so within one node the kernel's
#: log order -- the program order the whole algorithm assumes -- survives
#: a coarse or repeated timestamp.  Type priority is deliberately *not*
#: part of the key: it is Rule 2's choice *between* node queues (Section
#: 4.1).  Inside one node it inverts program order whenever a freed
#: worker takes the next request in zero time -- the log then holds, in
#: one context at one timestamp, the END of one request followed by the
#: BEGIN of the next, and BEGIN has the lower priority value.
#: Implemented with :func:`operator.attrgetter` so per-node sorting (the
#: paper's step 1, run over every activity) extracts the key tuple in C.
sort_key = operator.attrgetter("timestamp", "seq")


def draw_seqs(count: int) -> Iterable[int]:
    """The next ``count`` values of the creation counter, in order -- for
    a reader that packs rows now and builds their objects later
    (:meth:`repro.core.log_format.ActivityClassifier.pack_lines`)."""
    return itertools.islice(_activity_counter, count)

