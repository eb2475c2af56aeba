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

Every selection decision used to rescan the per-source / per-queue state;
the ranker now keeps three global indexes so each check is O(1) instead
of O(sources) or O(buffered activities):

* a **global future-send registry** (one counter shared by every source)
  answers "does a matching SEND still await fetch on *any* node?" without
  touching the sources -- this is the hot half of ``is_noise`` and of the
  blocked-RECEIVE test;
* a **buffered-send index** keyed by message key, holding per-node FIFO
  deques of the buffered SENDs in queue order, answers the other half and
  gives blockage resolution the (node, position-in-queue-order) of the
  blocking SEND without walking every queue;
* the **window low edge** is a cached minimum, recomputed (over the head
  of each queue and each source frontier) only after a mutation that can
  move it -- a delivery, a discard, a fetch, a promotion or an ingest --
  instead of on every ``rank()`` call.

All three are pure indexes: they never change which candidate is
selected, a property the batch/streaming equivalence tests pin down.

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

from .activity import Activity, ActivityType, sort_key
from .index_maps import MessageMap
from .kernel import DISCARD, EMPTY, RULE1, STALL, kernel_info

#: Interned message key (see :mod:`repro.core.interning`).
MessageKey = int


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


class ActivitySource:
    """A per-node stream of activities sorted by the node's local clock,
    which can be extended while it is being consumed.

    ``registry`` is the owning ranker's global future-send counter; the
    source keeps it in sync with its own per-source counter so the ranker
    can answer "any source still holds a SEND for this key?" in O(1).

    Internally the stream is shadowed by two struct-like parallel lists
    -- timestamps and (send-like only) interned message keys -- so the
    per-``rank()`` window fetch is a :func:`bisect.bisect_right` over a
    flat float list plus one slice, instead of an attribute-chasing loop
    over activity objects.
    """

    def __init__(
        self,
        node,
        activities: Iterable[Activity] = (),
        registry: Optional[Counter] = None,
    ) -> None:
        self.node = node
        self._activities: List[Activity] = []
        self._position = 0
        self._registry = registry
        # Columnar shadows of the sorted stream.  ``_ts`` is nondecreasing
        # (the sort key leads with the timestamp), which is what lets
        # ``take_until`` bisect.  ``_send_keys`` holds the interned message
        # key for send-like rows and None otherwise, so the counter
        # bookkeeping below never re-reads the activity objects.
        self._ts: List[float] = []
        self._send_keys: List[Optional[int]] = []
        # Message keys of send-like activities not yet fetched, kept as a
        # counter so the noise test stays O(1) per source instead of
        # rescanning the remaining stream for every RECEIVE head.
        self._future_send_keys: Counter = Counter()
        #: Local timestamp of the next unfetched activity (None when
        #: exhausted).  A plain attribute so the ranker's refill loop can
        #: read it without a method call.
        self.next_timestamp: Optional[float] = None
        #: Local timestamp of the newest activity ever added (the node's
        #: ingestion frontier), None before anything arrived.
        self.frontier: Optional[float] = None
        self.extend(activities)

    def extend(self, activities: Iterable[Activity]) -> None:
        """Add activities (any order) to the unconsumed tail.

        Activities are expected in (approximately) the node's local clock
        order -- the natural order of a node's own log.  A batch that
        sorts behind everything still unconsumed is appended to the three
        columns in bulk; only a genuinely late row is inserted at its
        sort position, and one older than everything already fetched
        lands at the consumption point (it cannot be sequenced earlier
        any more).
        """
        batch = sorted(activities, key=sort_key)
        if not batch:
            return
        rows, ts_column, send_keys = self._activities, self._ts, self._send_keys
        position = self._position
        if position:
            # Release what was already fetched: a stream must stay bounded.
            del rows[:position], ts_column[:position], send_keys[:position]
            self._position = 0
        timestamps = [a.timestamp for a in batch]
        keys = [a.message_key if a.send_like else None for a in batch]
        if not rows or sort_key(batch[0]) >= sort_key(rows[-1]):
            rows += batch
            ts_column += timestamps
            send_keys += keys
        else:
            for activity, timestamp, key in zip(batch, timestamps, keys):
                index = bisect_right(rows, sort_key(activity), key=sort_key)
                rows.insert(index, activity)
                ts_column.insert(index, timestamp)
                send_keys.insert(index, key)
        sends = [key for key in keys if key is not None]
        self._future_send_keys.update(sends)
        if self._registry is not None:
            self._registry.update(sends)
        if self.frontier is None or timestamps[-1] > self.frontier:
            self.frontier = timestamps[-1]
        self.next_timestamp = ts_column[0]

    def __len__(self) -> int:
        return len(self._activities) - self._position

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._activities)

    def peek_timestamp(self) -> Optional[float]:
        return self.next_timestamp

    def take_until(self, limit: float) -> List[Activity]:
        """Pop and return every remaining activity with timestamp <= limit.

        ``_ts`` is nondecreasing, so the scan is one bisect over the flat
        timestamp column followed by a slice -- the window fetch never
        touches the activity objects themselves.
        """
        position = self._position
        end = bisect_right(self._ts, limit, position)
        if end == position:
            return []
        taken = self._activities[position:end]
        self._position = end
        self._discard_fetched_sends(position, end)
        self._sync_next_timestamp()
        return taken

    def take_one(self) -> Optional[Activity]:
        """Pop a single activity regardless of the window (used to make
        progress when the window is smaller than the inter-activity gap)."""
        position = self._position
        if position >= len(self._activities):
            return None
        activity = self._activities[position]
        self._position = position + 1
        key = self._send_keys[position]
        if key is not None:
            self._discard_future_send(key)
        self._sync_next_timestamp()
        return activity

    def has_future_send(self, key: MessageKey) -> bool:
        """Is a send-like activity with ``key`` still awaiting fetch?"""
        return self._future_send_keys.get(key, 0) > 0

    def take_through_send(self, key: MessageKey) -> List[Activity]:
        """Pop activities up to and including the next send-like one with ``key``.

        Used to resolve the case where a RECEIVE surfaced at a queue head
        while, because of clock skew larger than the window, its matching
        SEND has not even been fetched from its node's stream yet.  All
        immediately-following parts of the same segmented send are pulled
        along with it, so the byte balance can complete without waiting for
        the window to catch up.
        """
        if not self.has_future_send(key):
            return []
        # Scan the send-key column for the first matching send, then pull
        # the consecutive same-key parts right behind it.
        send_keys = self._send_keys
        end = len(send_keys)
        position = self._position
        idx = position
        while idx < end and send_keys[idx] != key:
            idx += 1
        if idx == end:  # defensive: counter said one exists
            return []
        idx += 1
        while idx < end and send_keys[idx] == key:
            idx += 1
        taken = self._activities[position:idx]
        self._position = idx
        self._discard_fetched_sends(position, idx)
        self._sync_next_timestamp()
        return taken

    def _sync_next_timestamp(self) -> None:
        position = self._position
        if position >= len(self._ts):
            self.next_timestamp = None
        else:
            self.next_timestamp = self._ts[position]

    def _discard_fetched_sends(self, start: int, end: int) -> None:
        """Counter bookkeeping for every send-like row in ``[start, end)``
        (the inlined batch form of :meth:`_discard_future_send`, preserving
        its pop-at-zero behaviour so counters never accumulate dead keys)."""
        send_keys = self._send_keys
        local = self._future_send_keys
        registry = self._registry
        for i in range(start, end):
            key = send_keys[i]
            if key is None:
                continue
            count = local.get(key, 0)
            if count <= 1:
                local.pop(key, None)
            else:
                local[key] = count - 1
            if registry is not None:
                count = registry.get(key, 0)
                if count <= 1:
                    registry.pop(key, None)
                else:
                    registry[key] = count - 1

    def _discard_future_send(self, key: MessageKey) -> None:
        """One send-like activity with ``key`` left the unfetched region."""
        local = self._future_send_keys
        count = local.get(key, 0)
        if count <= 1:
            local.pop(key, None)
        else:
            local[key] = count - 1
        registry = self._registry
        if registry is not None:
            count = registry.get(key, 0)
            if count <= 1:
                registry.pop(key, None)
            else:
                registry[key] = count - 1


class Ranker:
    """Merge per-node streams into a single candidate stream.

    Parameters
    ----------
    sources:
        Mapping from node key to the node's complete activity list (any
        order; the ranker sorts by local timestamp, which is the paper's
        step 1): every stream is ingested and the ranker sealed on the
        spot.  ``None`` builds an *open* ranker instead, which grows by
        :meth:`ingest` and delivers only below the watermark until
        :meth:`seal`.  The node key is opaque to the ranker -- any
        hashable works; :meth:`ingest` uses the interned
        ``Activity.node_key`` ints.
    mmap:
        The engine's message map, consulted by Rule 1 and ``is_noise``
        (through a direct reference to its pending dict: the probe is the
        most frequent operation of the whole hot path).
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
        sources: Optional[Dict[str, Sequence[Activity]]],
        mmap: MessageMap,
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
        self._mmap = mmap
        # Direct reference to the mmap's pending dict: Rule 1 and the
        # noise test probe it once per RECEIVE head per selection round,
        # so even the bound-method call is worth skipping.  Safe because
        # MessageMap never rebinds ``_pending``.
        self._mmap_pending = mmap._pending
        # Delivery ceiling (local-timestamp watermark): the highest local
        # timestamp whose candidate-selection decisions can no longer be
        # changed by activities that have not been ingested yet.  Above
        # it ``rank()`` returns ``None`` ("stalled") instead of committing
        # a decision it might have to take back.  Nothing is deliverable
        # until data arrives; ``seal()`` lifts it to +inf, which makes
        # every ceiling check a no-op.
        self.ceiling: float = -math.inf
        # Global future-send registry: counts, across every source, the
        # send-like message keys still awaiting fetch.  Shared with the
        # sources, which keep it in sync as they are extended and consumed.
        self._future_send_keys: Counter = Counter()
        self._sources: Dict[str, ActivitySource] = {}
        self._queues: Dict[str, Deque[Activity]] = {}
        # Kernel head columns: one *slot* per node, in queue-registration
        # order (= the sweep's scan order; tie-breaks depend on it).
        # See repro.core.kernel.reference for the layout contract.  The
        # columns are refreshed incrementally wherever a queue head can
        # change: deliver, refill into an empty queue, noise discard,
        # head-swap promotion, ingest of a new node.
        self._kernel = kernel_info()
        self._slot_of: Dict[str, int] = {}
        self._slot_nodes: List[str] = []
        # Per-slot queue references (queues are created once per node and
        # never rebound, so the list stays valid): saves the node-keyed
        # dict lookup on every delivery.
        self._slot_queues: List[Deque[Activity]] = []
        # Container types come from the backend: the compiled kernel
        # needs buffer-capable ``array`` columns, the reference kernel
        # is faster on plain lists (see KernelInfo.float_column).
        self._head_ts = self._kernel.float_column()
        self._head_pri = self._kernel.int_column()
        self._head_seq = self._kernel.int_column()
        self._head_keys: List[Optional[int]] = []
        self._blocked_out = self._kernel.int_column()
        self._discard_out = self._kernel.int_column()
        self._select = None
        # Buffered-send index: message key -> node -> FIFO of the SENDs
        # with that key currently buffered in the node's queue, in queue
        # order.  Existence answers the noise / blocked-RECEIVE tests in
        # O(1); the per-node deques give blockage resolution the blocking
        # SEND (and its queue) without walking every queue.
        self._buffered_send_index: Dict[MessageKey, Dict[str, Deque[Activity]]] = {}
        # Cached window low edge; recomputed lazily after any mutation
        # that can move a queue head or a source frontier.  ``_low_node``
        # remembers which node supplied the minimum: removing a head from
        # any *other* node can only raise that node's own contribution, so
        # the cached minimum stays valid and most deliveries invalidate
        # nothing.  (Fetching never moves the low edge at all: it turns a
        # source-frontier contribution into an equal queue-head one.)
        self._low_cache: Optional[float] = None
        self._low_node: Optional[str] = None
        self._low_dirty = True
        # Cached minimum over the source frontiers, invalidated only by
        # fetches (deliveries do not move sources): lets _refill skip the
        # per-source fetch loop when nothing can possibly be in window.
        self._source_low_cache: Optional[float] = None
        self._source_low_dirty = True
        # Incremental count of buffered activities across every queue, so
        # ``buffered_count()`` (polled by ``exhausted()`` every EMPTY
        # verdict) is O(1).
        self._buffered_total = 0
        self.stats = RankerStats()
        if sources is not None:
            for node, activities in sources.items():
                self._extend_source(node, activities)
            self.seal()

    # -- ingestion ------------------------------------------------------------

    def ingest(self, activities: Iterable[Activity]) -> int:
        """Route activities to their per-node sources; returns the count.

        Nodes are registered in first-seen order (slot order decides
        tie-breaks).  Call :meth:`rank` (in a loop, until it returns
        ``None``) afterwards to drain everything the advanced watermark
        makes decidable.
        """
        per_node: Dict[int, List[Activity]] = {}
        for activity in activities:
            per_node.setdefault(activity.node_key, []).append(activity)
        for node, batch in per_node.items():
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
        return sum(map(len, per_node.values()))

    def _extend_source(self, node: str, batch: Iterable[Activity]) -> None:
        source = self._sources.get(node)
        if source is None:
            source = ActivitySource(node, registry=self._future_send_keys)
            self._sources[node] = source
            self._queues[node] = deque()
            # New node, new sweep slot (appended, so the established
            # scan order is preserved).
            self._register_slot(node)
        source.extend(batch)
        # Source frontiers moved: both cached minima are stale.
        self._low_dirty = True
        self._source_low_dirty = True

    def seal(self) -> None:
        """Mark the streams as complete: lift the ceiling so the tail
        drains with full look-ahead (including the noise fallback)."""
        self._sealed = True
        self.ceiling = math.inf

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def watermark(self) -> float:
        """The current delivery ceiling (-inf before any data)."""
        return self.ceiling

    # -- kernel head-state plumbing -----------------------------------------

    def _register_slot(self, node: str) -> None:
        """Grow the head columns by one slot (queue-registration order).

        Growing reallocates the column arrays, so any bound selector is
        dropped first -- the native backend exports buffer views into
        them, and an exporting array refuses to resize.  ``rank()``
        re-binds lazily on its next call.
        """
        self._select = None
        self._slot_of[node] = len(self._slot_nodes)
        self._slot_nodes.append(node)
        self._slot_queues.append(self._queues[node])
        self._head_ts.append(math.inf)
        self._head_pri.append(9)
        self._head_seq.append(0)
        self._head_keys.append(None)
        self._blocked_out.append(0)
        self._discard_out.append(0)

    def _rebind_kernel(self):
        """Bind the active kernel's selector over the current columns."""
        select = self._kernel.make_selector(
            self._head_ts,
            self._head_pri,
            self._head_seq,
            self._head_keys,
            self._mmap_pending,
            self._buffered_send_index,
            self._future_send_keys,
            self._blocked_out,
            self._discard_out,
        )
        self._select = select
        return select

    def _refresh_slot(self, slot: int, queue: Deque[Activity]) -> None:
        """Re-derive one slot's head columns after its queue head moved."""
        if queue:
            head = queue[0]
            priority = head.priority
            self._head_ts[slot] = head.timestamp
            self._head_pri[slot] = priority
            self._head_seq[slot] = head.seq
            self._head_keys[slot] = head.message_key if priority == 3 else None
        else:
            self._head_ts[slot] = math.inf

    @property
    def kernel_name(self) -> str:
        """Which kernel backend this ranker's sweeps run on."""
        return self._kernel.name

    def __getstate__(self):
        """Drop the bound selector: closures and the native Selector do
        not pickle (checkpoint/resume pickles an open ranker whole);
        the kernel is re-resolved in the restoring process' environment."""
        state = self.__dict__.copy()
        state["_select"] = None
        state["_kernel"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._kernel = kernel_info()
        # The restoring process may resolve a different backend than the
        # checkpointing one (e.g. a checkpoint taken with the compiled
        # kernel restored where no toolchain exists); re-home the head
        # columns in the container type the active backend requires.
        self._head_ts = self._kernel.float_column(self._head_ts)
        self._head_pri = self._kernel.int_column(self._head_pri)
        self._head_seq = self._kernel.int_column(self._head_seq)
        self._blocked_out = self._kernel.int_column(self._blocked_out)
        self._discard_out = self._kernel.int_column(self._discard_out)

    # -- public API ---------------------------------------------------------

    @property
    def window(self) -> float:
        return self._window

    def buffered_count(self) -> int:
        """Number of activities currently buffered in the ranker queues."""
        return self._buffered_total

    def buffered_activities(self) -> Iterable[Activity]:
        for queue in self._queues.values():
            yield from queue

    def exhausted(self) -> bool:
        """True once every source and every queue is empty."""
        return self._buffered_total == 0 and all(
            source.exhausted for source in self._sources.values()
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
        queues = self._queues
        nodes = self._slot_nodes
        slot_queues = self._slot_queues
        head_ts = self._head_ts
        head_pri = self._head_pri
        head_seq = self._head_seq
        head_keys = self._head_keys
        stats = self.stats
        window = self._window
        # The fused two-sweep selection lives in the kernel (see
        # repro.core.kernel.reference for the decision contract): flat
        # loops over the head columns, no attribute chasing.  This loop
        # does the state changes the verdict asks for.
        select = self._select
        if select is None:
            select = self._rebind_kernel()
        while True:
            # Refill only when it can do something: either a cached
            # minimum is stale, or some source frontier actually falls
            # inside the current window.  Once every source is drained
            # (clean source cache, no frontier) a refill can never fetch,
            # so the drain tail skips the gate -- and the low-edge cache
            # is allowed to stay dirty, since only refills consume it.
            if self._source_low_dirty:
                self._refill()
            else:
                source_low = self._source_low_cache
                if source_low is not None:
                    if self._low_dirty:
                        self._refill()
                    else:
                        low = self._low_cache
                        if low is not None and source_low <= low + window:
                            self._refill()

            decision = select(ceiling)
            code = decision & 7
            if code < EMPTY:  # RULE1 or RULE2: deliver the winning head
                if code == RULE1:
                    stats.rule1_selections += 1
                else:
                    stats.rule2_selections += 1
                # Inline fast delivery (the mirror of ``_deliver``, minus
                # the identity-removal branch: the kernel's winner is by
                # construction the current head of its slot's queue).
                slot = decision >> 3
                node = nodes[slot]
                queue = slot_queues[slot]
                activity = queue.popleft()
                if activity.send_like:
                    self._note_dequeued(node, activity)
                if node == self._low_node:
                    self._low_dirty = True
                if queue:
                    head = queue[0]
                    ts = head.timestamp
                    priority = head.priority
                    head_ts[slot] = ts
                    head_pri[slot] = priority
                    head_seq[slot] = head.seq
                    head_keys[slot] = (
                        head.message_key if priority == 3 else None
                    )
                    if not self._low_dirty:
                        # Delivering from a promoted prefix can expose a
                        # head *below* the cached minimum even on a
                        # non-low node (see ``_deliver``).
                        low = self._low_cache
                        if low is not None and ts < low:
                            self._low_dirty = True
                else:
                    head_ts[slot] = math.inf
                self._buffered_total -= 1
                stats.delivered += 1
                return activity
            if code == DISCARD:
                # Noise heads: no matching SEND pending, buffered or
                # awaiting fetch anywhere.  Pop them all and reselect.
                count = decision >> 3
                discard_out = self._discard_out
                for position in range(count):
                    slot = discard_out[position]
                    node = nodes[slot]
                    queue = slot_queues[slot]
                    queue.popleft()
                    if node == self._low_node:
                        self._low_dirty = True
                    self._refresh_slot(slot, queue)
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
                blocked = []
                blocked_out = self._blocked_out
                for position in range(count):
                    node = nodes[blocked_out[position]]
                    blocked.append((node, queues[node][0]))
                if self._resolve_blockage(blocked):
                    continue

            if ceiling != math.inf:
                # Still open: the blocking SENDs have not been ingested
                # yet; delivering the RECEIVEs now would misclassify them.
                # Stall until the sender's stream catches up (or until
                # seal() lifts the ceiling and the fallback below applies).
                return None

            # Could not make progress (should not happen with well-formed
            # traces); fall back to plain Rule 2 so the ranker never stalls.
            node, choice = self._select_rule2(
                [(node, queue[0]) for node, queue in queues.items() if queue]
            )
            self.stats.rule2_selections += 1
            return self._deliver(node, choice)

    # -- window management ----------------------------------------------------

    def _refill(self) -> None:
        """Fetch into the queues every activity within the sliding window.

        The lower edge of the window is the minimal local timestamp among
        the queue heads and the next unfetched activity of every source
        (Section 4.1: after a candidate is popped "the ranker will update
        the new minimal timestamp ... and fetch new qualified activities").
        """
        low = self._window_low()
        if low is None:
            return
        limit = low + self._window
        source_low = self._source_low()
        if source_low is None or source_low > limit:
            return  # no source holds anything inside the window
        fetched = False
        for node, source in self._sources.items():
            next_ts = source.next_timestamp
            if next_ts is None or next_ts > limit:
                continue
            taken = source.take_until(limit)
            if taken:
                fetched = True
                self._enqueue(node, taken)
        if fetched:
            self.stats.window_refills += 1
            count = self.buffered_count()
            if count > self.stats.max_buffered:
                self.stats.max_buffered = count

    def _window_low(self) -> Optional[float]:
        """The cached low edge of the sliding window.

        The minimum over the queue heads and source frontiers can only
        move when one of them does, so it is recomputed lazily after a
        delivery, discard, fetch, promotion or ingest rather
        than on every ``rank()`` call.
        """
        if not self._low_dirty:
            return self._low_cache
        low: Optional[float] = None
        low_node: Optional[str] = None
        sources = self._sources
        for node, queue in self._queues.items():
            if queue:
                ts = queue[0].timestamp
            else:
                ts = sources[node].next_timestamp
                if ts is None:
                    continue
            if low is None or ts < low:
                low = ts
                low_node = node
        self._low_cache = low
        self._low_node = low_node
        self._low_dirty = False
        return low

    def _source_low(self) -> Optional[float]:
        """Cached minimum over the source frontiers (None = all drained)."""
        if not self._source_low_dirty:
            return self._source_low_cache
        low: Optional[float] = None
        for source in self._sources.values():
            ts = source.next_timestamp
            if ts is not None and (low is None or ts < low):
                low = ts
        self._source_low_cache = low
        self._source_low_dirty = False
        return low

    def _force_fetch_one(self) -> bool:
        """Admit the earliest unfetched activity when the window admits none.

        Returns ``False`` when nothing was admitted -- either every source
        is drained, or (open ranker) the earliest unfetched activity is
        above the delivery ceiling and must wait for the watermark.
        """
        best_node: Optional[str] = None
        best_ts: Optional[float] = None
        for node, source in self._sources.items():
            ts = source.next_timestamp
            if ts is None:
                continue
            if best_ts is None or ts < best_ts:
                best_ts = ts
                best_node = node
        if best_node is None or best_ts is None or best_ts > self.ceiling:
            return False
        activity = self._sources[best_node].take_one()
        if activity is not None:
            self._enqueue(best_node, (activity,))
            count = self.buffered_count()
            if count > self.stats.max_buffered:
                self.stats.max_buffered = count
        return True

    def _enqueue(self, node: str, taken: Sequence[Activity]) -> None:
        """Append fetched activities to a queue and index their sends."""
        queue = self._queues[node]
        was_empty = not queue
        queue.extend(taken)
        self._buffered_total += len(taken)
        if was_empty:
            # Appends only change the head of a previously empty queue.
            self._refresh_slot(self._slot_of[node], queue)
        index = self._buffered_send_index
        for activity in taken:
            if activity.send_like:
                index.setdefault(activity.message_key, {}).setdefault(
                    node, deque()
                ).append(activity)
        # A fetch advances the source frontier but never moves the window
        # low edge: it converts a source-frontier contribution into an
        # equal queue-head one, so only the source minimum goes stale.
        self._source_low_dirty = True

    # -- candidate selection ----------------------------------------------------

    def _select_rule2(
        self, heads: Sequence[Tuple[str, Activity]]
    ) -> Tuple[str, Activity]:
        """Rule 2: the head with the lowest type priority.

        Ties are broken by the local timestamp so the output is
        deterministic; with correct priorities the result does not depend
        on how ties break (any order of causally-unrelated activities is
        acceptable to the engine).
        """
        best = heads[0]
        head = best[1]
        best_key = (head.priority, head.timestamp, head.seq)
        for item in heads[1:]:
            head = item[1]
            key = (head.priority, head.timestamp, head.seq)
            if key < best_key:
                best_key = key
                best = item
        return best

    def _deliver(self, node: str, activity: Activity) -> Activity:
        queue = self._queues[node]
        if queue and queue[0] is activity:
            queue.popleft()
        else:  # the activity was rotated away from the front by the swap
            # logic: remove it by identity, never by equality -- a
            # value-equal sibling activity must not be dequeued in its
            # place (MessageMap bookkeeping is identity-based too).
            for position, other in enumerate(queue):
                if other is activity:
                    del queue[position]
                    break
            else:
                raise ValueError("delivered activity is not buffered in its queue")
        if activity.send_like:
            self._note_dequeued(node, activity)
        if node == self._low_node:
            self._low_dirty = True
        elif not self._low_dirty and queue:
            # Queues are timestamp-sorted except for a prefix of promoted
            # SENDs (the Fig. 6 head swap puts a later SEND in front of an
            # earlier head).  Delivering from that prefix can expose a head
            # *below* the cached minimum even on a non-low node, so check
            # the newly exposed head explicitly.  An emptied queue cannot
            # lower the minimum: the source frontier is >= every fetched
            # timestamp of its node.
            low = self._low_cache
            if low is not None and queue[0].timestamp < low:
                self._low_dirty = True
        self._refresh_slot(self._slot_of[node], queue)
        self._buffered_total -= 1
        self.stats.delivered += 1
        return activity

    def _note_dequeued(self, node: str, activity: Activity) -> None:
        """Drop a dequeued send-like activity from the buffered-send index
        (callers pre-check ``send_like`` to spare the call for receives)."""
        key = activity.message_key
        per_node = self._buffered_send_index.get(key)
        if per_node is None:
            return
        entries = per_node.get(node)
        if entries is None:
            return
        if entries[0] is activity:
            entries.popleft()
        else:
            for position, other in enumerate(entries):
                if other is activity:
                    del entries[position]
                    break
        if not entries:
            del per_node[node]
            if not per_node:
                del self._buffered_send_index[key]

    # -- noise handling -----------------------------------------------------------

    def is_noise(self, activity: Activity) -> bool:
        """The ``is_noise`` predicate of Fig. 5.

        A RECEIVE is noise when no matching SEND exists either in the
        engine's mmap or anywhere in the ranker buffer.  BEGIN activities
        are never noise: their senders (external clients) are outside the
        traced perimeter by definition.
        """
        if activity.type is not ActivityType.RECEIVE:
            return False
        key = activity.message_key
        if self._mmap_pending.get(key):
            return False
        if key in self._buffered_send_index:
            return False
        # A matching SEND may also still be outside the window on its own
        # node; the global future-send registry covers every source, so a
        # small window does not misclassify legitimate traffic as noise.
        return self._future_send_keys.get(key, 0) <= 0

    # -- concurrency disturbance -----------------------------------------------------

    def _find_buffered_send(self, key: MessageKey) -> Optional[Tuple[str, Activity]]:
        """The first buffered SEND with ``key``, via the buffered-send index.

        "First" preserves the pre-index scan order: the earliest in queue
        order on the first node (in queue-registration order) that holds
        one -- with a single holding node (the overwhelmingly common case,
        since a directional connection key identifies the sending host)
        resolved without touching the queues at all.
        """
        per_node = self._buffered_send_index.get(key)
        if not per_node:
            return None
        if len(per_node) == 1:
            node, entries = next(iter(per_node.items()))
            return (node, entries[0])
        for node in self._queues:
            entries = per_node.get(node)
            if entries:
                return (node, entries[0])
        return None

    def _resolve_blockage(self, heads: Sequence[Tuple[str, Activity]]) -> bool:
        """Make progress when every queue head is a blocked RECEIVE.

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
        future = self._future_send_keys
        for _node, head in heads:
            key = head.message_key
            if future.get(key, 0) <= 0:
                continue
            for source_node, source in self._sources.items():
                if not source.has_future_send(key):
                    continue
                taken = source.take_through_send(key)
                if not taken:
                    continue
                self._enqueue(source_node, taken)
                count = self.buffered_count()
                if count > self.stats.max_buffered:
                    self.stats.max_buffered = count
                return True

        for _node, head in heads:
            found = self._find_buffered_send(head.message_key)
            if found is None:
                continue
            queue_node, send = found
            queue = self._queues[queue_node]
            if queue[0] is send:
                continue
            ahead_same_context = False
            for other in queue:
                if other is send:
                    break
                if other.context_key == send.context_key:
                    ahead_same_context = True
                    break
            if ahead_same_context:
                continue
            self._promote_send(queue_node, send)
            return True
        return False

    def _promote_send(self, node: str, send: Activity) -> None:
        """The head swap of Fig. 6: rotate a blocking SEND to its queue
        front, keeping the buffered-send index in queue order."""
        queue = self._queues[node]
        for position, other in enumerate(queue):
            if other is send:
                del queue[position]
                break
        queue.appendleft(send)
        entries = self._buffered_send_index[send.message_key][node]
        if entries[0] is not send:
            for position, other in enumerate(entries):
                if other is send:
                    del entries[position]
                    break
            entries.appendleft(send)
        self._refresh_slot(self._slot_of[node], queue)
        self._low_dirty = True
        self.stats.head_swaps += 1
