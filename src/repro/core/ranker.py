"""The ranker: candidate selection for CAG construction (Section 4.1).

The ranker merges the per-node activity streams into one stream of
*candidates* that the engine consumes.  It never relies on synchronised
clocks: activities are kept in per-node queues ordered by each node's own
local clock, and a sliding time window (whose size may be any positive
value) bounds how much of each stream is buffered at once.

Candidate selection follows the paper's two rules:

* **Rule 1** -- if the head of some queue is a RECEIVE whose matching SEND
  has already been delivered to the engine (i.e. it sits in the engine's
  ``mmap``), that RECEIVE is the candidate.
* **Rule 2** -- otherwise the head with the lowest type priority
  (``BEGIN < SEND < END < RECEIVE < MAX``) is the candidate, which
  guarantees that a SEND is always delivered before the RECEIVE it pairs
  with.

Two disturbances are tolerated (Section 4.3):

* **noise activities** -- RECEIVEs for which no matching SEND exists either
  in the ``mmap`` or anywhere in the ranker buffer are discarded
  (``is_noise``); attribute-based filtering happens earlier, in
  :class:`repro.core.log_format.ActivityClassifier`.
* **concurrency disturbance** -- on multi-processor nodes two queues can
  both be headed by RECEIVEs that block each other's matching SENDs; the
  ranker resolves this by moving the blocking SEND in front of its queue
  (the generalisation of the head-swap of Fig. 6).

Hot-path data structures
------------------------

A node's window is not a copy of its stream, and its stream is not a
list of objects.  :class:`ActivitySource` keeps the node's sorted rows in
one :class:`~repro.core.interning.ActivityTable` -- the same packed
columns every feed hands the ranker -- and two cursors into it: rows
``[head, fence)`` *are* the node's queue, rows from ``fence`` on await
fetch.  A window fetch is one :func:`bisect.bisect_right` over the
timestamp column that moves ``fence``; a delivery moves ``head``.  The
kernel head columns are refreshed from the type / timestamp / ``seq`` /
message-key columns, so deciding needs no object; the ``Activity`` of a
row is built by :meth:`Ranker.rank` at the moment it delivers the row
(a noise discard, a late insert or a Fig. 6 rotation never builds one).
Delivered rows are let go when the source next grows, and between the
slices of a sealed drain (:meth:`Ranker.release`).  Beside the cursors
there is

* one **undelivered-send registry** shared by every source -- message
  key -> how many send-like rows with that key sit at or behind some
  ``head``, buffered or awaiting fetch.  It is filled in bulk when a
  source grows and decremented once per delivered send, and it answers
  the noise / blocked-RECEIVE question ("does a matching SEND still
  exist anywhere?") in one probe;
* per source, a **position index** -- message key -> the absolute row
  positions of its undelivered sends, ascending.  The last position at
  or behind ``fence`` means a send awaits fetch, the first one before it
  is the first buffered send: blockage resolution reads both without
  walking rows.  Positions count from the first row the source ever
  held, so releasing delivered rows renumbers nothing.  Only blockage
  resolution reads it, and a well-formed trace never blocks: the index
  is built by the first read (one scan from ``head``) and maintained
  from then on; until then growth and delivery skip it.

The window low edge is derived, not cached: :meth:`Ranker._refill`
recomputes it in the same pass over the slots that fetches, and runs
only when a delivery, a discard, a promotion or an ingest may have moved
it.  None of this changes which candidate is selected, a property the
batch/streaming equivalence tests pin down.

Growing streams and the delivery ceiling
----------------------------------------

Several decisions peek at the *future* of a stream (``is_noise`` and the
blocked-RECEIVE test both ask "does a matching SEND exist anywhere later
in some source?").  Online the future has not arrived yet, so the one
ranker serves both uses: sources grow by :meth:`Ranker.ingest`, and
candidates are only delivered below a *ceiling* -- the slowest node's
ingestion frontier minus the reorder slack (``window + 2 * skew_bound``).
Below it every SEND that could match an already-seen RECEIVE has provably
been ingested, so an open ranker takes exactly the decisions it would
take over the complete streams.  :meth:`Ranker.seal` ends the stream and
lifts the ceiling to ``+inf``; a ranker constructed over complete streams
is simply ingested and sealed on the spot.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .activity import Activity
from .interning import _TYPES, NO_REQUEST, ActivityTable, KeySpace
from .kernel import DISCARD, EMPTY, RULE1, STALL, kernel_info

#: Message (connection) id in the ranker's key space (see
#: :mod:`repro.core.interning`).
MessageKey = int

_new_activity = object.__new__

_INF = math.inf


@dataclass
class RankerStats:
    """Counters exposed for evaluation and debugging."""

    delivered: int = 0
    noise_discarded: int = 0
    rule1_selections: int = 0
    rule2_selections: int = 0
    head_swaps: int = 0
    window_refills: int = 0
    max_buffered: int = 0
    #: Deliveries taken by the plain-Rule-2 fallback of :meth:`Ranker.rank`
    #: (every head a blocked RECEIVE and no way to unblock one).  0 on a
    #: well-formed trace; anything else says the order of some node's log
    #: contradicts the messages it records.
    fallback_selections: int = 0


class ActivitySource:
    """A per-node stream of activities sorted by the node's local clock,
    which can be extended while it is being consumed -- and, between its
    two cursors, the node's queue.

    The rows live in one :class:`~repro.core.interning.ActivityTable`
    (no shadow copies beside it): the ranker reads the type, timestamp,
    message-key and ``seq`` columns, and a row becomes an ``Activity``
    only when it is delivered.  Rows ``[head, fence)`` have been fetched
    into the window and not delivered yet; rows ``[fence, len)`` await
    fetch.  The
    timestamp column is nondecreasing from ``fence`` on (the sort key
    leads with the timestamp), which is what lets a fetch bisect; the
    queue part can carry a promoted SEND in front of earlier rows
    (Fig. 6).  A send-like row is one whose type is SEND or END; its
    message key is its *send key*.

    ``registry`` is the owning ranker's undelivered-send counter, which
    the source adds its sends to as it grows.  The source's table is over
    the key space of ``rows`` (a new one without), and so must be every
    batch it is extended by.
    """

    def __init__(
        self,
        node,
        rows: Optional[ActivityTable] = None,
        registry: Optional[Counter] = None,
    ) -> None:
        self.node = node
        table = self._table = ActivityTable(rows.keys if rows is not None else None)
        # The table's columns under the names the hot path reads them
        # by; they are only ever mutated in place, never rebound.
        self._types = table._types
        self._ts = table._timestamps
        self._mkeys = table._mkeys
        self._seqs = table._seqs
        self._ckeys = table._ckeys
        # Node id of the rows (``Activity.node_key``), learnt
        # from the first row: ``node`` is whatever the owner keys by.
        self._node_key = -1
        #: Queue cursors (row indexes into the columns).
        self.head = 0
        self.fence = 0
        # How many rows were released in front of row 0: a row's absolute
        # position is ``_base`` + its index, and never changes.
        self._base = 0
        # Message key -> ascending absolute positions of the undelivered
        # send-like rows with that key (buffered ones first, then the
        # ones awaiting fetch).  No entry for a key without any.  None
        # until blockage resolution first asks (``_positions``).
        self._send_positions: Optional[Dict[MessageKey, Deque[int]]] = None
        self._registry = registry
        #: Local timestamp of the next unfetched activity (None when
        #: exhausted).  A plain attribute so the ranker's refill loop can
        #: read it without a method call.
        self.next_timestamp: Optional[float] = None
        #: Local timestamp of the newest activity ever added (the node's
        #: ingestion frontier), None before anything arrived.
        self.frontier: Optional[float] = None
        if rows is not None:
            self.extend(rows)

    def extend(self, rows: ActivityTable) -> None:
        """Add rows (any order) to the unfetched tail.

        Rows are expected in (approximately) the node's local clock
        order -- the natural order of a node's own log.  A batch that
        sorts behind everything still unfetched is appended a column at a
        time; only a genuinely late row is inserted at its sort position,
        every column moved together, and one older than everything
        already fetched lands at the consumption point, ``fence`` (it
        cannot be sequenced earlier any more).
        """
        batch = rows.ordered()
        if not len(batch):
            return
        if self._node_key < 0:
            self._node_key = batch.node_key(0)
        # Release what was delivered: a stream must stay bounded.
        self.release()
        table = self._table
        stamps, seqs = self._ts, self._seqs
        fence = self.fence
        size = len(stamps)
        positions = self._send_positions
        if fence == size or (batch._timestamps[0], batch._seqs[0]) >= (
            stamps[-1],
            seqs[-1],
        ):
            table.concat(batch)
            if positions is not None:
                for index in range(size, len(stamps)):
                    key = self.send_key(index)
                    if key is not None:
                        positions.setdefault(key, deque()).append(self._base + index)
        else:
            new_stamps, new_seqs = batch._timestamps, batch._seqs
            for row in range(len(batch)):
                # bisect_right by (timestamp, seq) over the unfetched rows
                stamp, seq = new_stamps[row], new_seqs[row]
                index = bisect_right(stamps, stamp, fence)
                while index > fence and stamps[index - 1] == stamp and seqs[index - 1] > seq:
                    index -= 1
                table.insert_from(index, batch, row)
            if positions is not None:
                self._reindex_sends()
        if self._registry is not None:
            self._registry.update(batch.send_keys())
        newest = batch._timestamps[-1]
        if self.frontier is None or newest > self.frontier:
            self.frontier = newest
        self.next_timestamp = stamps[fence]

    def release(self) -> None:
        """Drop the delivered rows (those in front of ``head``).  Absolute
        positions count from the first row ever held, so nothing is
        renumbered."""
        head = self.head
        if head:
            self._table.release(head)
            self._base += head
            self.fence -= head
            self.head = 0

    def __len__(self) -> int:
        """How many activities still await fetch."""
        return len(self._ts) - self.fence

    @property
    def exhausted(self) -> bool:
        return self.fence >= len(self._ts)

    def peek_timestamp(self) -> Optional[float]:
        return self.next_timestamp

    def activity(self, index: int) -> Activity:
        """Row ``index`` built into a new ``Activity``."""
        return self._table.activity(index)

    def activities(self, start: int, end: int) -> List[Activity]:
        """Rows ``[start, end)`` as activities (see :meth:`activity`)."""
        return [self.activity(index) for index in range(start, end)]

    def buffered(self) -> List[Activity]:
        """The queue: fetched and not delivered, in queue order."""
        return self.activities(self.head, self.fence)

    def context_key(self, index: int) -> int:
        """Row ``index``'s context id."""
        return self._ckeys[index]

    def send_key(self, index: int) -> Optional[MessageKey]:
        """Row ``index``'s message key when it is send-like, else None."""
        kind = self._types[index]
        return self._mkeys[index] if kind == 1 or kind == 2 else None

    # -- fetching (moves ``fence``) -----------------------------------------

    def fetch_until(self, limit: float) -> int:
        """Admit every unfetched activity with timestamp <= limit to the
        queue -- one bisect over the flat timestamp column, no row is
        touched -- and return how many that was."""
        fence = self.fence
        end = bisect_right(self._ts, limit, fence)
        self._move_fence(end)
        return end - fence

    def fetch_one(self) -> bool:
        """Admit a single activity regardless of the window (used to make
        progress when the window is smaller than the inter-activity gap):
        whether a row was admitted (none awaited fetch otherwise)."""
        fence = self.fence
        if fence >= len(self._ts):
            return False
        self._move_fence(fence + 1)
        return True

    def fetch_through_send(self, key: MessageKey) -> int:
        """Admit activities up to and including the next send-like one
        with ``key``; returns how many (0: no such send awaits fetch).

        Used to resolve the case where a RECEIVE surfaced at a queue head
        while, because of clock skew larger than the window, its matching
        SEND has not even been fetched from its node's stream yet.  All
        immediately-following parts of the same segmented send are pulled
        along with it, so the byte balance can complete without waiting for
        the window to catch up.
        """
        fence = self.fence
        base = self._base
        # The first recorded position behind the fence is the matching
        # send; the consecutive same-key parts sit right behind it.
        index = next(
            (
                position - base
                for position in self._positions().get(key, ())
                if position - base >= fence
            ),
            None,
        )
        if index is None:
            return 0
        end = len(self._ts)
        index += 1
        while index < end and self.send_key(index) == key:
            index += 1
        self._move_fence(index)
        return index - fence

    def _move_fence(self, end: int) -> None:
        self.fence = end
        ts_column = self._ts
        self.next_timestamp = ts_column[end] if end < len(ts_column) else None

    # -- the queue (moves ``head``) ------------------------------------------

    def first_buffered_send(self, key: MessageKey) -> Optional[int]:
        """Row index of the first send-like activity with ``key`` in the
        queue, None when the queue holds none."""
        entries = self._positions().get(key)
        if entries is None:
            return None
        index = entries[0] - self._base
        return index if index < self.fence else None

    def move_to_head(self, index: int) -> None:
        """Rotate queue row ``index`` to the queue front, in every
        column; the rows it jumps over keep their order one place back.

        The recorded positions of every send involved are repaired (when
        the index exists): the jumped ones move up by one, the moved one
        (if it is a send) gets the head's -- the lowest of its key, so it
        leads its key's entries even past a same-key sibling that was
        ahead of it.
        """
        head = self.head
        if index == head:
            return
        self._table.rotate(head, index)
        positions = self._send_positions
        if positions is None:
            return
        # (the rotation permutes rows [head, index]: same keys as before)
        touched = {self.send_key(row) for row in range(head, index + 1)} - {None}
        low, high = self._base + head, self._base + index

        def moved(position: int) -> int:
            if position == high:
                return low
            return position + 1 if low <= position < high else position

        for key in touched:
            positions[key] = deque(sorted(map(moved, positions[key])))

    def _positions(self) -> Dict[MessageKey, Deque[int]]:
        """The position index, built on first use."""
        if self._send_positions is None:
            self._reindex_sends()
        return self._send_positions

    def _reindex_sends(self) -> None:
        """Build the position index from the type and message-key columns
        (at its first use, and after a late row was inserted in the middle
        of it)."""
        positions: Dict[MessageKey, Deque[int]] = {}
        base = self._base
        for index in range(self.head, len(self._ts)):
            key = self.send_key(index)
            if key is not None:
                positions.setdefault(key, deque()).append(base + index)
        self._send_positions = positions


class Ranker:
    """Merge per-node streams into a single candidate stream.

    Parameters
    ----------
    trace:
        A complete trace, as packed rows (any order; the ranker groups
        them per node and sorts each node's rows by local timestamp,
        which is the paper's step 1): it is ingested and the ranker
        sealed on the spot.  ``None`` builds an *open* ranker instead,
        which grows by :meth:`ingest` and delivers only below the
        watermark until :meth:`seal`.
    mmap:
        The engine's ``mmap`` dict (connection id -> pending SENDs),
        consulted by Rule 1 and ``is_noise``: the probe is the most
        frequent operation of the whole hot path.
    window:
        Size of the sliding time window in seconds.  Any positive value is
        legal; larger windows buffer more activities (more memory, more
        work per step) but the output is identical -- a property the
        evaluation (Fig. 10/11) explores.
    skew_bound:
        Upper bound on the absolute clock skew of any node, in seconds.
        Together with the window it determines the *reorder slack*: while
        the ranker is open, a candidate at local time ``t`` is only
        delivered once every node has ingested past ``t + window + 2 *
        skew_bound``.  Overestimating the bound only delays emission by
        the overestimate; it never changes the output.
    """

    def __init__(
        self,
        trace: Optional[ActivityTable],
        mmap: Dict[MessageKey, Deque[Activity]],
        window: float = 0.010,
        skew_bound: float = 0.005,
    ) -> None:
        if window <= 0:
            raise ValueError("the sliding time window must be positive")
        if skew_bound < 0:
            raise ValueError("skew_bound must be non-negative")
        self._window = window
        # Strictly greater than window + 2*skew so that activities above
        # the watermark can never fall inside a refill limit computed from
        # a delivered candidate.
        self._slack = window + 2.0 * skew_bound + 1e-9
        self._sealed = False
        # The engine's ``mmap`` itself: Rule 1 and the noise test probe it
        # once per RECEIVE head per selection round.
        self._mmap_pending = mmap
        # Delivery ceiling (local-timestamp watermark): the highest local
        # timestamp whose candidate-selection decisions can no longer be
        # changed by activities that have not been ingested yet.  Above
        # it ``rank()`` returns ``None`` ("stalled") instead of committing
        # a decision it might have to take back.  Nothing is deliverable
        # until data arrives; ``seal()`` lifts it to +inf, which makes
        # every ceiling check a no-op.
        self.ceiling: float = -_INF
        # Undelivered-send registry: message key -> how many send-like
        # activities with that key some source still holds, buffered or
        # awaiting fetch.  The sources add to it as they grow; a delivery
        # takes one off, and the key with the last one.
        self._undelivered_sends: Counter = Counter()
        self._sources: Dict[int, ActivitySource] = {}
        # Kernel head columns: one *slot* per node, in registration order
        # (= the sweep's scan order; tie-breaks depend on it).  See
        # repro.core.kernel.reference for the layout contract.  The
        # columns are refreshed incrementally wherever a queue head can
        # change: deliver, fetch into an empty queue, noise discard,
        # head-swap promotion.
        self._slot_of: Dict[int, int] = {}
        self._slot_nodes: List[int] = []
        # Per-slot source references: saves the node-keyed dict lookup on
        # every delivery.
        self._slot_sources: List[ActivitySource] = []
        self._head_ts: List[float] = []
        self._head_pri: List[int] = []
        self._head_seq: List[int] = []
        self._head_keys: List[Optional[int]] = []
        self._blocked_out: List[int] = []
        self._discard_out: List[int] = []
        self._bind_kernel()
        # The window low edge as the last refill derived it, and whether
        # another refill is due.  After a refill nothing unfetched lies
        # within ``_low + window``, and that stays true until the low
        # edge rises -- the head that held it leaves (its timestamp is
        # then <= ``_low``), or a promotion replaces it -- or a source
        # grows.  A fetch never moves the edge: it turns a source
        # frontier into an equal queue head.  ``_low`` is -inf once every
        # source is drained, so the drain tail asks for no refill at all.
        self._low = -_INF
        self._refill_due = False
        # Incremental count of buffered activities across every queue, so
        # ``buffered_count()`` (polled by ``exhausted()`` every EMPTY
        # verdict) is O(1).
        self._buffered_total = 0
        #: the key space of the sources' rows: the first table's, adopted
        #: by :meth:`ingest` (``None`` before)
        self.keys: Optional[KeySpace] = None
        self.stats = RankerStats()
        if trace is not None:
            self.ingest(trace)
            self.seal()

    # -- ingestion ------------------------------------------------------------

    def ingest(self, rows: ActivityTable) -> int:
        """Route the packed rows of an
        :class:`~repro.core.interning.ActivityTable` to their per-node
        sources (keyed by node id); returns the count.

        The ranker adopts the key space of the first table it is fed; a
        table of another (a resumed checkpoint fed by a fresh source) is
        re-keyed into it by identity (:meth:`ActivityTable.rekeyed`), so
        the ids the engine already holds keep their meaning.  Nodes are
        registered in first-seen order (slot order decides tie-breaks).
        Call :meth:`rank` (in a loop, until it returns ``None``)
        afterwards to drain everything the advanced watermark makes
        decidable.  A row becomes an ``Activity`` when it is
        delivered; an entry point holding objects packs them first
        (:meth:`ActivityTable.from_activities`).
        """
        if not isinstance(rows, ActivityTable):
            raise TypeError(
                f"the ranker takes an ActivityTable, not {type(rows).__name__}; "
                "pack objects with ActivityTable.from_activities"
            )
        if self.keys is None:
            self.keys = rows.keys
        elif rows.keys is not self.keys:
            rows = rows.rekeyed(self.keys)
        for node, batch in rows.by_node().items():
            self._extend_source(node, batch)
        if not self._sealed:
            # The watermark is the slowest node's ingestion frontier,
            # minus the reorder slack.  A node that stops logging holds
            # it back until seal() -- the standard behaviour of
            # watermark-based stream processors.
            frontiers = [
                source.frontier
                for source in self._sources.values()
                if source.frontier is not None
            ]
            if frontiers:
                self.ceiling = min(frontiers) - self._slack
        return len(rows)

    def _extend_source(self, node: int, batch: ActivityTable) -> None:
        source = self._sources.get(node)
        if source is None:
            source = ActivitySource(node, batch, registry=self._undelivered_sends)
            self._sources[node] = source
            # New node, new sweep slot (appended, so the established
            # scan order is preserved).
            self._register_slot(node, source)
        else:
            source.extend(batch)
        self._refill_due = True

    def seal(self) -> None:
        """Mark the streams as complete: lift the ceiling so the tail
        drains with full look-ahead (including the noise fallback)."""
        self._sealed = True
        self.ceiling = _INF

    def release(self) -> None:
        """Let go of delivered rows.  Growth does this on its own
        (:meth:`ActivitySource.extend`); a sealed ranker no longer grows,
        so whoever drains it calls this between slices -- or the run ends
        still holding every row it ever delivered or discarded.  A source
        is cut once at least half of what it holds has been delivered:
        what stays is at most twice what is still to come, and the rows
        moved up over a whole drain add up to the stream once over, not
        once per slice."""
        for source in self._slot_sources:
            if source.head * 2 >= len(source._ts):
                source.release()

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def watermark(self) -> float:
        """The current delivery ceiling (-inf before any data)."""
        return self.ceiling

    # -- kernel head-state plumbing -----------------------------------------

    def _register_slot(self, node: int, source: ActivitySource) -> None:
        """Grow the head columns by one slot (registration order)."""
        self._slot_of[node] = len(self._slot_nodes)
        self._slot_nodes.append(node)
        self._slot_sources.append(source)
        self._head_ts.append(_INF)
        self._head_pri.append(9)
        self._head_seq.append(0)
        self._head_keys.append(None)
        self._blocked_out.append(0)
        self._discard_out.append(0)

    def _bind_kernel(self) -> None:
        """Bind the active kernel's selector over the head columns, once
        per ranker: the columns are lists that grow in place, and every
        selector reads their length on each call."""
        self._select = kernel_info().make_selector(
            self._head_ts,
            self._head_pri,
            self._head_seq,
            self._head_keys,
            self._mmap_pending,
            self._undelivered_sends,
            self._blocked_out,
            self._discard_out,
        )

    def _refresh_slot(self, slot: int, source: ActivitySource) -> None:
        """Re-derive one slot's head columns after its queue head moved."""
        head = source.head
        if head < source.fence:
            priority = source._types[head]
            self._head_ts[slot] = source._ts[head]
            self._head_pri[slot] = priority
            self._head_seq[slot] = source._seqs[head]
            self._head_keys[slot] = source._mkeys[head] if priority == 3 else None
        else:
            self._head_ts[slot] = _INF

    def __getstate__(self):
        """Drop the bound selector: closures and the native Selector do
        not pickle (checkpoint/resume pickles an open ranker whole);
        the kernel is re-resolved in the restoring process' environment."""
        state = self.__dict__.copy()
        state["_select"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_kernel()

    # -- public API ---------------------------------------------------------

    @property
    def window(self) -> float:
        return self._window

    def buffered_count(self) -> int:
        """Number of activities currently buffered in the ranker queues."""
        return self._buffered_total

    def buffered_activities(self) -> Iterable[Activity]:
        for source in self._slot_sources:
            yield from source.buffered()

    def exhausted(self) -> bool:
        """True once every source and every queue is empty."""
        return self._buffered_total == 0 and all(
            source.exhausted for source in self._slot_sources
        )

    def rank(self) -> Optional[Activity]:
        """Return the next candidate activity, or ``None`` when done.

        This is the ``ranker.rank()`` of the correlation pseudo-code.  The
        selection differs from the paper's Rule 2 in one respect needed to
        honour the claim that the window size is independent of clock
        skew: a head RECEIVE whose matching SEND exists but has not been
        delivered yet (it is buffered behind another head, or not even
        fetched because its node's clock runs far ahead) is never selected.
        Instead the ranker either selects another head, pulls the sender's
        stream forward, or -- in the true concurrency-disturbance case of
        Fig. 6 -- promotes the blocking SEND within its queue, which is the
        paper's head swap generalised to arbitrary queue positions.
        """
        ceiling = self.ceiling
        sources = self._slot_sources
        head_ts = self._head_ts
        head_pri = self._head_pri
        head_seq = self._head_seq
        head_keys = self._head_keys
        undelivered = self._undelivered_sends
        stats = self.stats
        # The canonical ContextId per context id, for the row objects
        contexts = self.keys.contexts if self.keys is not None else ()
        # The fused two-sweep selection lives in the kernel (see
        # repro.core.kernel.reference for the decision contract): flat
        # loops over the head columns, no attribute chasing.  This loop
        # does the state changes the verdict asks for.
        select = self._select
        while True:
            if self._refill_due:
                self._refill()

            decision = select(ceiling)
            code = decision & 7
            if code < EMPTY:  # RULE1 or RULE2: deliver the winning head
                if code == RULE1:
                    stats.rule1_selections += 1
                else:
                    stats.rule2_selections += 1
                # Inline fast delivery (the mirror of ``_pop_head``: the
                # kernel's winner is by construction the head of its
                # slot's queue).
                slot = decision >> 3
                source = sources[slot]
                head = source.head
                # The row's object is born here (the mirror of
                # ``ActivityTable.activity``), so a row that is discarded,
                # rotated or inserted never has one.
                table = source._table
                kind = source._types[head]
                timestamp = source._ts[head]
                key = source._mkeys[head]
                context_key = table._ckeys[head]
                message = table._messages[head]
                request_id = table._request_ids[head]
                activity = _new_activity(Activity)
                activity.type = _TYPES[kind]
                activity.timestamp = timestamp
                activity.context = contexts[context_key]
                activity.message = message
                activity.request_id = None if request_id == NO_REQUEST else request_id
                activity.seq = source._seqs[head]
                activity.size = message.size
                activity.context_key = context_key
                activity.message_key = key
                activity.node_key = source._node_key
                activity.priority = kind
                if kind != 1 and kind != 2:
                    key = None
                if key is not None:  # send-like: one undelivered send fewer
                    positions = source._send_positions
                    if positions is not None:
                        # The head is the first undelivered send of its key.
                        entries = positions[key]
                        entries.popleft()
                        if not entries:
                            del positions[key]
                    count = undelivered[key]
                    if count > 1:
                        undelivered[key] = count - 1
                    else:
                        del undelivered[key]
                if timestamp <= self._low:
                    self._refill_due = True
                head += 1
                source.head = head
                if head < source.fence:
                    priority = source._types[head]
                    head_ts[slot] = source._ts[head]
                    head_seq[slot] = source._seqs[head]
                    head_keys[slot] = source._mkeys[head] if priority == 3 else None
                    head_pri[slot] = priority
                else:
                    head_ts[slot] = _INF
                self._buffered_total -= 1
                stats.delivered += 1
                return activity
            if code == DISCARD:
                # Noise heads: no matching SEND pending, buffered or
                # awaiting fetch anywhere.  Drop them all and reselect.
                count = decision >> 3
                discard_out = self._discard_out
                low = self._low
                for position in range(count):
                    slot = discard_out[position]
                    if head_ts[slot] <= low:
                        self._refill_due = True
                    source = sources[slot]
                    source.head += 1
                    self._refresh_slot(slot, source)
                self._buffered_total -= count
                stats.noise_discarded += count
                continue
            if code == EMPTY:
                if self.exhausted():
                    return None
                # Window too small to admit any activity: force progress by
                # admitting the globally earliest unfetched activity.  While
                # the ranker is open it may sit above the ceiling; then stall
                # instead.
                if not self._force_fetch_one():
                    return None
                continue
            if code == STALL:
                return None  # nothing decidable yet: wait for the watermark

            # BLOCKED: every selectable head is a RECEIVE blocked on an
            # undelivered SEND; resolve the disturbance and try again.
            # Only heads below the ceiling are acted on -- for newer heads
            # the blocking SEND may not be ingested yet.
            count = decision >> 3
            if count:
                blocked_out = self._blocked_out
                blocked = [head_keys[blocked_out[p]] for p in range(count)]
                if self._resolve_blockage(blocked):
                    continue

            if ceiling != _INF:
                # Still open: the blocking SENDs have not been ingested
                # yet; delivering the RECEIVEs now would misclassify them.
                # Stall until the sender's stream catches up (or until
                # seal() lifts the ceiling and the fallback below applies).
                return None

            # Could not make progress (should not happen with well-formed
            # traces); fall back to plain Rule 2 so the ranker never stalls.
            stats.fallback_selections += 1
            stats.rule2_selections += 1
            return self._pop_head(self._select_rule2())

    # -- window management ----------------------------------------------------

    def _refill(self) -> None:
        """Fetch into the queues every activity within the sliding window.

        The lower edge of the window is the minimal local timestamp among
        the queue heads and the next unfetched activity of every source
        (Section 4.1: after a candidate is popped "the ranker will update
        the new minimal timestamp ... and fetch new qualified activities").
        One pass over the slots finds it and the earliest unfetched
        timestamp, which says whether a second pass has anything to
        fetch; the sources within the window then move their fence.
        """
        self._refill_due = False
        head_ts = self._head_ts
        sources = self._slot_sources
        low = nearest = _INF  # ... and the earliest unfetched timestamp
        slot = 0
        for source in sources:
            ts = head_ts[slot]
            next_ts = source.next_timestamp
            if next_ts is not None:
                if next_ts < nearest:
                    nearest = next_ts
                if ts == _INF:
                    ts = next_ts
            if ts < low:
                low = ts
            slot += 1
        if nearest == _INF:
            self._low = -_INF  # every source drained: no more refills
            return
        self._low = low
        limit = low + self._window
        if nearest > limit:
            return
        fetched = 0
        slot = 0
        for source in sources:
            next_ts = source.next_timestamp
            if next_ts is not None and next_ts <= limit:
                fetched += source.fetch_until(limit)
                if head_ts[slot] == _INF:
                    self._refresh_slot(slot, source)
            slot += 1
        self.stats.window_refills += 1
        self._note_fetched(fetched)

    def _note_fetched(self, count: int) -> None:
        total = self._buffered_total = self._buffered_total + count
        if total > self.stats.max_buffered:
            self.stats.max_buffered = total

    def _force_fetch_one(self) -> bool:
        """Admit the earliest unfetched activity when the window admits none.

        Returns ``False`` when nothing was admitted -- either every source
        is drained, or (open ranker) the earliest unfetched activity is
        above the delivery ceiling and must wait for the watermark.
        """
        best_slot: Optional[int] = None
        best_ts: Optional[float] = None
        for slot, source in enumerate(self._slot_sources):
            ts = source.next_timestamp
            if ts is None:
                continue
            if best_ts is None or ts < best_ts:
                best_ts = ts
                best_slot = slot
        if best_slot is None or best_ts is None or best_ts > self.ceiling:
            return False
        source = self._slot_sources[best_slot]
        source.fetch_one()
        self._refresh_slot(best_slot, source)
        self._note_fetched(1)
        # The admitted activity is the new low edge; its window is unfetched.
        self._refill_due = True
        return True

    # -- candidate selection ----------------------------------------------------

    def _select_rule2(self) -> int:
        """Rule 2 over every non-empty queue: the slot whose head has the
        lowest type priority.

        Ties are broken by the local timestamp, then ``seq``, then slot
        order, so the output is deterministic; with correct priorities
        the result does not depend on how ties break (any order of
        causally-unrelated activities is acceptable to the engine).
        """
        head_ts, head_pri, head_seq = self._head_ts, self._head_pri, self._head_seq
        return min(
            (slot for slot in range(len(head_ts)) if head_ts[slot] != _INF),
            key=lambda slot: (head_pri[slot], head_ts[slot], head_seq[slot]),
        )

    def _pop_head(self, slot: int) -> Activity:
        """Deliver the head of ``slot``'s queue (``rank()`` inlines this)."""
        source = self._slot_sources[slot]
        head = source.head
        activity = source.activity(head)
        key = source.send_key(head)
        if key is not None:
            positions = source._send_positions
            if positions is not None:
                entries = positions[key]
                entries.popleft()
                if not entries:
                    del positions[key]
            undelivered = self._undelivered_sends
            count = undelivered[key]
            if count > 1:
                undelivered[key] = count - 1
            else:
                del undelivered[key]
        if self._head_ts[slot] <= self._low:
            self._refill_due = True
        source.head = head + 1
        self._refresh_slot(slot, source)
        self._buffered_total -= 1
        self.stats.delivered += 1
        return activity

    # -- concurrency disturbance -----------------------------------------------------

    def _find_buffered_send(self, key: MessageKey) -> Optional[Tuple[int, int]]:
        """(slot, row index) of the first buffered SEND with ``key``: the
        earliest in queue order on the first node, in registration order,
        that holds one."""
        for slot, source in enumerate(self._slot_sources):
            index = source.first_buffered_send(key)
            if index is not None:
                return slot, index
        return None

    def _resolve_blockage(self, keys: Sequence[MessageKey]) -> bool:
        """Make progress when every queue head is a blocked RECEIVE
        (``keys``: the message keys of those heads, in slot order).

        Two mechanisms, tried in order for each blocked head:

        1. If the matching SEND has not been fetched yet (the sender's
           clock runs ahead of the window), pull the sender's stream
           forward up to and including that SEND.  The SEND's own causal
           predecessors are pulled with it and keep their relative order,
           so per-context ordering is preserved.
        2. If the matching SEND is already buffered behind another head
           (the Fig. 6 concurrency disturbance), promote it to the front
           of its queue -- but only when no activity ahead of it belongs
           to the same execution entity, because reordering within one
           context would fabricate a wrong adjacent-context relation.

        Returns True when any queue changed, so the caller re-runs
        candidate selection.
        """
        for key in keys:
            for slot, source in enumerate(self._slot_sources):
                taken = source.fetch_through_send(key)
                if not taken:
                    continue
                if self._head_ts[slot] == _INF:
                    self._refresh_slot(slot, source)
                self._note_fetched(taken)
                return True

        for key in keys:
            found = self._find_buffered_send(key)
            if found is None:
                continue
            slot, index = found
            source = self._slot_sources[slot]
            if index == source.head:
                continue
            context_key = source.context_key(index)
            if any(
                source.context_key(ahead) == context_key
                for ahead in range(source.head, index)
            ):
                continue
            self._promote_send(slot, index)
            return True
        return False

    def _promote_send(self, slot: int, index: int) -> None:
        """The head swap of Fig. 6: rotate the blocking SEND at row
        ``index`` of ``slot``'s queue to the queue front."""
        source = self._slot_sources[slot]
        source.move_to_head(index)
        self._refresh_slot(slot, source)
        self._refill_due = True
        self.stats.head_swaps += 1
