"""The correlation engine: CAG construction (Section 4.2, Fig. 3).

The engine repeatedly fetches a candidate activity from the ranker and
attaches it to an unfinished CAG, using the two index maps:

* ``cmap`` (context identifier -> latest activity in that execution
  entity) establishes adjacent-context relations,
* ``mmap`` (message identifier -> pending SEND) establishes message
  relations and supports the n-to-n SEND/RECEIVE merging of Fig. 4 by
  tracking the outstanding byte count of each logical message.

The engine also implements the thread-reuse guard of the paper (Fig. 3
lines 29-32): the context edge into a RECEIVE is only added when both
candidate parents already belong to the *same* CAG, which prevents an
activity from being spliced into a previous request's path when worker
threads are recycled from a pool.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from .activity import Activity, ActivityType
from .cag import CAG, CONTEXT_EDGE, MESSAGE_EDGE, SampledOutCAG, ensure_cag_ids_above
from .index_maps import ContextMap, MessageMap


@dataclass
class EngineStats:
    """Counters describing what the engine did with the candidate stream."""

    begins: int = 0
    ends: int = 0
    sends: int = 0
    receives: int = 0
    merged_sends: int = 0
    partial_receives: int = 0
    #: multi-part RECEIVEs whose byte count balanced only after a later
    #: same-context activity was chained (concurrent fan-out gathers);
    #: they are spliced into the context chain at their timestamp
    #: position, keeping the chain delivery-order independent.
    spliced_receives: int = 0
    unmatched_receives: int = 0
    unmatched_sends: int = 0
    unmatched_ends: int = 0
    thread_reuse_blocked: int = 0
    oversized_receives: int = 0
    #: receive parts that straddled a pipelined-message boundary on a
    #: reused connection and were split: the head SEND's byte count was
    #: final, so the part's leading bytes completed it and the remainder
    #: carried over to the next pending SEND.
    split_receives: int = 0
    finished_cags: int = 0
    # Request-sampling counters (a sampler was configured).  Sampled-out
    # requests are tracked as tombstones while in flight and discarded on
    # completion; see :class:`repro.core.cag.SampledOutCAG`.
    sampled_out_roots: int = 0
    sampled_out_finished: int = 0
    #: context-map entries purged because their latest activity belonged
    #: to a closing sampled-out tombstone (see ``_release_vertices``);
    #: every finished tombstone purges at least its END's entry, a
    #: conservation law the fuzz harness checks.
    purged_cmap_entries: int = 0
    # Watermark-based eviction counters (streaming mode only; the batch
    # path never evicts).  See :meth:`CorrelationEngine.evict_stale`.
    evicted_mmap_entries: int = 0
    evicted_cmap_entries: int = 0
    #: backlogged receive parts dropped by watermark eviction (their
    #: matching SEND bytes never arrived within the horizon).
    evicted_backlog_parts: int = 0
    evicted_open_cags: int = 0
    evicted_sampled_out_cags: int = 0


class CorrelationEngine:
    """Build CAGs from the candidate stream produced by the ranker.

    ``sampler`` is an optional :class:`repro.sampling.RequestSampler`:
    it is consulted once per causal root (BEGIN) and decides whether the
    request is materialised as a full CAG or as a discarded-on-completion
    :class:`~repro.core.cag.SampledOutCAG` tombstone.  Sampling never
    changes what enters the index maps -- the ranker's candidate
    selection consults the ``mmap``, so the candidate stream (and with
    it cross-backend equivalence) is independent of the sampling
    decisions; only which requests get edges, analysis and memory is.
    """

    def __init__(self, sampler=None) -> None:
        self.mmap = MessageMap()
        self.cmap = ContextMap()
        self.stats = EngineStats()
        self.sampler = sampler
        # Per-candidate adaptive feedback: only wired up when the
        # sampler actually adapts, so the hot path pays one None check
        # otherwise.
        self._sampler_tick = (
            sampler.tick if sampler is not None and sampler.is_adaptive else None
        )
        self._finished: List[CAG] = []
        self._open: Dict[int, CAG] = {}
        # Map from a vertex (by identity) to the CAG that owns it.  Only
        # vertices of *open* CAGs are tracked; entries are dropped when a
        # CAG finishes, which keeps the map size proportional to the number
        # of in-flight requests.
        self._owner: Dict[int, CAG] = {}
        # Per-connection FIFO of receive parts whose bytes have not been
        # consumed by a pending SEND yet.  Each entry is a mutable list
        # ``[activity, remaining, fed, fed_send]``: the delivered part,
        # how many of its bytes are still unconsumed, how many bytes it
        # has fed into the *current* head SEND, and that SEND (so stale
        # feed counts are detected when a head vanishes without
        # completing).  Byte matching consumes backlog parts against
        # pending SENDs strictly in FIFO order on both sides
        # (:meth:`_settle`), which makes the n-to-n matching insensitive
        # to how part deliveries interleave across nodes -- the property
        # the sharded driver's batch-equivalence rests on when an
        # oversized RECEIVE spans pipelined requests on a reused
        # connection.
        self._recv_backlog: Dict[int, Deque[list]] = {}
        self._backlog_size = 0
        # Sequence number of the last *delivered* activity per context
        # (``cmap`` only advances when a RECEIVE completes, which can
        # happen many candidates after its delivery).  Kernel-part
        # merges (BEGIN/SEND/END) are gated on this: a part may only
        # merge into its program-order predecessor -- if any other
        # activity of the context was delivered in between, the parts
        # are separate logical messages.  Without the gate the merge
        # decision hinges on whether an intervening RECEIVE *completed*
        # in time, which depends on how deliveries interleave across
        # nodes and diverges between backends.
        self._ctx_last_seq: Dict[int, int] = {}
        self._prev_ctx_seq: int = -1
        # CAGs dropped by watermark eviction (streaming mode); kept so the
        # final accounting can still report them as incomplete paths.
        self._evicted: List[CAG] = []
        # Direct references into the index maps' backing dicts.  Every
        # candidate performs at least one cmap lookup and update, so the
        # method indirection is measurable on the Fig. 9 benchmark; the
        # maps remain the owning API (eviction, touch, introspection) and
        # both sides only ever mutate these dicts in place, never rebind
        # them.
        self._cmap_latest = self.cmap._latest
        self._cmap_recency = self.cmap._recency
        self._mmap_pending = self.mmap._pending

    # -- pickling (streaming checkpoints) -----------------------------------

    def __getstate__(self):
        """Picklable engine state (the streaming checkpoint payload).

        Two kinds of attribute cannot cross a pickle boundary as-is
        and are reconstructed in :meth:`__setstate__`:

        * the direct index-map dict references and the sampler's bound
          ``tick`` (rebuilt from the unpickled maps and sampler);
        * ``_owner``, keyed by ``id(activity)`` -- object ids do not
          survive unpickling.  It is *derived* state: exactly the
          vertices of the open CAGs, each owned by its CAG (entries are
          added when a vertex joins an open CAG and dropped by
          ``_release_vertices`` when the CAG closes), so it is rebuilt
          from ``_open`` rather than serialised.

        ``_recv_backlog`` needs no translation: its entries reference
        their activities (and the head SEND they fed) directly, and the
        pickle memo keeps those references identical to the objects
        inside the unpickled ``mmap`` deques.
        """
        state = self.__dict__.copy()
        for derived in (
            "_cmap_latest",
            "_cmap_recency",
            "_mmap_pending",
            "_sampler_tick",
            "_owner",
        ):
            state.pop(derived, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # The revived CAGs carry ids assigned by the checkpointing
        # process; keep the local id counter ahead of them so no new CAG
        # can collide with a live ``_open`` key.
        highest = -1
        for group in (self._open.values(), self._finished, self._evicted):
            for cag in group:
                if cag.cag_id > highest:
                    highest = cag.cag_id
        if highest >= 0:
            ensure_cag_ids_above(highest)
        self._owner = {
            id(vertex): cag
            for cag in self._open.values()
            for vertex in cag.vertices
        }
        sampler = self.sampler
        self._sampler_tick = (
            sampler.tick if sampler is not None and sampler.is_adaptive else None
        )
        self._cmap_latest = self.cmap._latest
        self._cmap_recency = self.cmap._recency
        self._mmap_pending = self.mmap._pending

    # -- public API --------------------------------------------------------

    @property
    def finished_cags(self) -> List[CAG]:
        """CAGs whose END activity has been correlated (outputs)."""
        return self._finished

    @property
    def open_cags(self) -> List[CAG]:
        """CAGs still waiting for more activities (in-flight or deformed).

        Sampled-out tombstones are engine state, not output: they count
        toward :meth:`pending_state_size` (and the adaptive sampler's
        open-CAG feedback) but are never reported as open or incomplete.
        """
        return [cag for cag in self._open.values() if not cag.sampled_out]

    @property
    def open_entry_count(self) -> int:
        """Number of in-flight entries, tombstones included (the memory
        figure the adaptive sampler steers against)."""
        return len(self._open)

    @property
    def open_tombstone_count(self) -> int:
        """Sampled-out tombstones still in flight (engine-sanity probe:
        after a drained batch run, roots == finished + this count)."""
        return sum(1 for cag in self._open.values() if cag.sampled_out)

    @property
    def evicted_cags(self) -> List[CAG]:
        """CAGs dropped by :meth:`evict_stale` before their END arrived."""
        return list(self._evicted)

    def pending_state_size(self) -> int:
        """Number of live bookkeeping entries (for memory accounting)."""
        return (
            len(self.mmap)
            + len(self.cmap)
            + len(self._owner)
            + len(self._open)
            + self._backlog_size
        )

    def process(self, current: Activity) -> Optional[CAG]:
        """Handle one candidate activity.

        Returns the CAG completed by this activity when ``current`` is the
        END of a request, ``None`` otherwise.  This is the body of the
        ``while`` loop of Fig. 3.
        """
        if self._sampler_tick is not None:
            self._sampler_tick(len(self._open))
        ctx_key = current.context_key
        self._prev_ctx_seq = self._ctx_last_seq.get(ctx_key, -1)
        self._ctx_last_seq[ctx_key] = current.seq
        return _HANDLERS[current.priority](self, current)

    # -- BEGIN / END ---------------------------------------------------------

    def _handle_begin(self, current: Activity) -> Optional[CAG]:
        self.stats.begins += 1
        previous = self._cmap_latest.get(current.context_key)
        if (
            previous is not None
            and previous.type is ActivityType.BEGIN
            and previous.message_key == current.message_key
            and previous.seq == self._prev_ctx_seq
        ):
            owner = self._owner.get(id(previous))
            if owner is not None and len(owner) == 1:
                # The request body arrived in several kernel reads before
                # the component did anything else: merge the parts into one
                # BEGIN instead of opening a second (bogus) CAG.  The merge
                # grows the vertex in place, so refresh the context's and
                # the CAG's eviction recency -- otherwise a multi-part body
                # straddling the horizon looks idle and streaming eviction
                # drops a *live* request.
                previous.size += current.size
                # The vertex absorbed the part: it stays the context's
                # last-delivered activity, so the next part can merge too.
                self._ctx_last_seq[current.context_key] = previous.seq
                self.cmap.touch(current.context_key, current.timestamp)
                owner.touch(current.timestamp)
                return None

        if self.sampler is not None and not self.sampler.admit(current):
            # Sampled out at the causal root: open a tombstone instead of
            # a CAG.  Index-map bookkeeping proceeds exactly as for a
            # traced request (the ranker's decisions depend on it), but
            # no edges are built and the tombstone is discarded -- and
            # its cmap/mmap state purged -- when its END arrives or the
            # eviction horizon passes it.
            cag = SampledOutCAG(current)
            self.stats.sampled_out_roots += 1
        else:
            cag = CAG(root=current)
        self._open[cag.cag_id] = cag
        self._owner[id(current)] = cag
        key = current.context_key
        self._cmap_latest[key] = current
        self._cmap_recency[key] = current.timestamp
        return None

    def _handle_end(self, current: Activity) -> Optional[CAG]:
        self.stats.ends += 1
        parent = self._cmap_latest.get(current.context_key)
        if parent is None:
            self.stats.unmatched_ends += 1
            return None
        if (
            parent.type is ActivityType.END
            and parent.message_key == current.message_key
            and parent.seq == self._prev_ctx_seq
        ):
            # Response flushed in several kernel writes; the request is
            # already finished, just account the extra bytes -- and keep
            # the context's eviction recency honest while the tail of the
            # response is still being written.
            parent.size += current.size
            self._ctx_last_seq[current.context_key] = parent.seq
            self.cmap.touch(current.context_key, current.timestamp)
            return None
        cag = self._owner.get(id(parent))
        if cag is None:
            self.stats.unmatched_ends += 1
            return None
        cag.append(current, parent, CONTEXT_EDGE)
        key = current.context_key
        self._cmap_latest[key] = current
        self._cmap_recency[key] = current.timestamp
        self._finish(cag, current)
        return None if cag.sampled_out else cag

    # -- SEND ----------------------------------------------------------------

    def _parent_is_pending(self, parent: Activity) -> bool:
        """Identity probe of the pending map (``MessageMap.is_pending``
        without the method indirection and generator allocation -- this
        sits on the per-SEND merge check of the hot loop)."""
        queue = self._mmap_pending.get(parent.message_key)
        if not queue:
            return False
        for entry in queue:
            if entry is parent:
                return True
        return False

    def _handle_send(self, current: Activity) -> Optional[CAG]:
        self.stats.sends += 1
        parent = self._cmap_latest.get(current.context_key)
        cag = self._owner.get(id(parent)) if parent is not None else None
        if parent is None or cag is None:
            # A SEND with no causal predecessor belongs to traffic we do
            # not trace (noise, or a flow whose BEGIN predates the trace).
            self.stats.unmatched_sends += 1
            return None

        if (
            parent.type is ActivityType.SEND
            and parent.message_key == current.message_key
            and parent.seq == self._prev_ctx_seq
            and self._parent_is_pending(parent)
        ):
            # Fig. 3 line 15-16: consecutive kernel writes of one logical
            # message collapse into a single SEND vertex whose byte count
            # grows; the mmap entry is the same object, so the outstanding
            # byte count grows with it.  "Consecutive" is judged against
            # the context's *delivery* history (``_prev_ctx_seq``), not
            # the cmap -- see ``_ctx_last_seq``.  If the previous SEND
            # has already been fully matched (its bytes balanced out
            # before this part was delivered, which interleaved delivery
            # can produce), this part starts a fresh SEND vertex instead
            # so the remaining receiver reads still find a pending entry
            # to match.
            parent.size += current.size
            self.stats.merged_sends += 1
            self._ctx_last_seq[current.context_key] = parent.seq
            # Same recency hazard as the BEGIN/END merges: the vertex grew
            # in place, so the context and its CAG are provably alive.
            self.cmap.touch(current.context_key, current.timestamp)
            cag.touch(current.timestamp)
            # The receiver's reads may already be waiting in the backlog
            # (delivered before this part was merged in); the grown byte
            # count can consume them now -- and complete the match when
            # the books balance.
            backlog = self._recv_backlog.get(current.message_key)
            if backlog:
                self._settle(self._mmap_pending[current.message_key], backlog)
            return None

        cag.append(current, parent, CONTEXT_EDGE)
        self._owner[id(current)] = cag
        key = current.context_key
        self._cmap_latest[key] = current
        self._cmap_recency[key] = current.timestamp
        message_key = current.message_key
        pending = self._mmap_pending.get(message_key)
        if pending is None:
            pending = self._mmap_pending[message_key] = deque()
        pending.append(current)
        # A new SEND vertex behind a balanced-but-parked head finalises
        # the head's byte count (its sender context has moved on), and
        # backlog parts retained from the previous pipelined message can
        # start feeding this one.
        backlog = self._recv_backlog.get(message_key)
        if backlog:
            self._settle(pending, backlog)
        return None

    # -- RECEIVE ---------------------------------------------------------------

    def _handle_receive(self, current: Activity) -> Optional[CAG]:
        self.stats.receives += 1
        key = current.message_key
        pending = self._mmap_pending.get(key)
        if not pending:
            self.stats.unmatched_receives += 1
            return None

        backlog = self._recv_backlog.get(key)
        if not backlog:
            # Fast path for the by-far-common unsegmented cases: nothing
            # backlogged on this connection, the head SEND is live and
            # still has bytes outstanding, and this part does not overrun
            # it.  Equivalent to allocating a backlog entry and running
            # ``_settle`` -- which would consume exactly this part against
            # exactly that head -- minus the allocations.
            send = pending[0]
            cag = self._owner.get(id(send))
            if cag is not None and send.size > 0:
                size = current.size
                if size < send.size:
                    # Partial read: bytes still outstanding, nothing kept.
                    send.size -= size
                    self.stats.partial_receives += 1
                    return None
                if size == send.size:
                    # Exact balance: the match completes immediately.
                    send.size = 0
                    self._complete_receive(send, current, cag)
                    return None
            if backlog is None:
                backlog = self._recv_backlog[key] = deque()
        backlog.append([current, current.size, 0, None])
        self._backlog_size += 1
        if self._settle(pending, backlog) == 0:
            # Only part of the logical message has been matched so far
            # (Fig. 4).
            self.stats.partial_receives += 1
            if backlog and backlog[0][1] > 0:
                # Receive bytes ran ahead of the sender's merged parts:
                # the leftover waits in the backlog instead of driving
                # the pending SEND's balance negative.
                self.stats.oversized_receives += 1
        return None

    def _settle(self, pending: Deque[Activity], backlog: Deque[list]) -> int:
        """Consume backlogged receive parts against pending SENDs.

        Both sides are strict per-connection FIFOs, so the byte matching
        depends only on the per-queue delivery orders (which every
        backend shares), never on how deliveries interleave across
        nodes.  A pending SEND's balance never goes negative: when a
        receive part's bytes run ahead of the sender's merged parts, the
        leftover parks at the head of the backlog until either a later
        kernel write merges in (growing the SEND) or a new SEND vertex
        proves the byte count final.  Returns the number of logical
        messages completed.
        """
        completed = 0
        while pending and backlog:
            send = pending[0]
            cag = self._owner.get(id(send))
            if cag is None:
                # The owning CAG finished or was evicted; drop the ghost
                # so it cannot capture this (unrelated) traffic.
                self.mmap.remove(send)
                self.stats.unmatched_receives += 1
                continue
            entry = backlog[0]
            if entry[3] is not send:
                # First bytes this part feeds into this SEND (or the head
                # it previously fed vanished without completing).
                entry[2] = 0
                entry[3] = send
            if send.size > 0:
                take = entry[1] if entry[1] < send.size else send.size
                send.size -= take
                entry[1] -= take
                entry[2] += take
            if send.size > 0:
                # Part exhausted, message still outstanding: a later part
                # (or a merged send write) continues the match.
                backlog.popleft()
                self._backlog_size -= 1
                continue
            # The byte balance is at zero -- but more kernel writes of
            # this logical message may still be on their way (Fig. 4's
            # n-to-n segmentation, delivered in any interleaving).
            if entry[1] == 0:
                # The receive part ended exactly on the message boundary:
                # the books balance, the match is complete.
                backlog.popleft()
                self._backlog_size -= 1
                self._complete_receive(send, entry[0], cag)
                completed += 1
                continue
            if self._cmap_latest.get(send.context_key) is send:
                # The sender's context is still parked on this SEND, so a
                # later kernel write can still merge in and grow the
                # message: the leftover receive bytes must wait.
                break
            # The sender has moved on -- this SEND's byte count is final.
            # The receive part straddles the message boundary: split it,
            # complete this message with the bytes it consumed, and leave
            # the remainder for the next pipelined message.
            part = entry[0]
            vertex = Activity(
                type=part.type,
                timestamp=part.timestamp,
                context=part.context,
                message=part.message,
                request_id=part.request_id,
                seq=part.seq,
                size=entry[2],
            )
            entry[2] = 0
            entry[3] = None
            self.stats.split_receives += 1
            self._complete_receive(send, vertex, cag)
            completed += 1
        return completed

    def _complete_receive(self, parent_msg: Activity, current: Activity, cag: CAG) -> None:
        """All bytes of a logical message are matched: add the RECEIVE vertex."""
        self.mmap.remove(parent_msg)
        cag.append(current, parent_msg, MESSAGE_EDGE)
        self._owner[id(current)] = cag

        key = current.context_key
        parent_cntx = self._cmap_latest.get(key)
        if parent_cntx is not None and parent_cntx is not current:
            if self._owner.get(id(parent_cntx)) is cag:
                if (current.timestamp, current.seq) < (
                    parent_cntx.timestamp,
                    parent_cntx.seq,
                ):
                    # Late completion: this logical message balanced its
                    # bytes only after a later same-context activity was
                    # already chained (possible when one context gathers
                    # from several connections concurrently, as the exact
                    # interleaving of part deliveries across nodes is
                    # window-population dependent).  Splice the vertex in
                    # at its timestamp position so the context chain is
                    # identical however deliveries interleaved -- the
                    # property the sharded driver's batch-equivalence
                    # rests on.  The newer activity stays the cmap entry.
                    self._splice_in_order(cag, current, parent_cntx)
                    self.stats.spliced_receives += 1
                    return
                cag.add_edge(parent_cntx, current, CONTEXT_EDGE)
            else:
                # Thread-reuse guard: the latest activity of this execution
                # entity belongs to a different request (recycled pool
                # thread); do not splice the paths together.
                self.stats.thread_reuse_blocked += 1
        self._cmap_latest[key] = current
        self._cmap_recency[key] = current.timestamp

    def _splice_in_order(self, cag: CAG, current: Activity, latest: Activity) -> None:
        """Insert ``current`` into the context chain before ``latest``.

        Walk the chain backwards from ``latest`` to the first activity
        not after ``current`` (by (timestamp, seq), the per-node sort
        order) and rewire the chain around ``current``.
        """
        after = latest
        while True:
            edge = None
            for candidate in cag.parents_of(after):
                if candidate.kind == CONTEXT_EDGE:
                    edge = candidate
                    break
            if edge is None:
                # ``current`` precedes every chained activity: it becomes
                # the new chain head in front of ``after``.
                cag.add_edge(current, after, CONTEXT_EDGE)
                return
            before = edge.parent
            if (before.timestamp, before.seq) <= (current.timestamp, current.seq):
                cag.splice_context_vertex(before, after, current)
                return
            after = before

    # -- watermark eviction (streaming mode) --------------------------------------

    def evict_stale(self, before: float) -> int:
        """Drop bookkeeping entries whose activity timestamps fell below
        ``before`` (the stream watermark minus the configured horizon).

        Three kinds of state are reclaimed:

        * pending ``mmap`` SENDs -- their RECEIVE would have arrived by
          now, so they can only capture unrelated traffic on a recycled
          connection;
        * ``cmap`` entries -- contexts idle for longer than the horizon
          (e.g. worker threads of finished requests);
        * open CAGs whose most recent activity is older than ``before`` --
          requests that will never finish (lost END, crashed component).

        The trade-off: a *live* request that stays idle for longer than
        the horizon (e.g. a query stuck behind a lock for minutes) loses
        its state and its remaining activities form a deformed path.
        Choose a horizon comfortably above the service's worst-case
        response time; ``None`` (in :class:`repro.stream.IncrementalEngine`)
        disables eviction entirely and restores the batch path's exact
        behaviour.  Returns the number of entries evicted and counts them
        in :class:`EngineStats`.
        """
        evicted = 0
        for send in self.mmap.evict_older_than(before):
            self.stats.evicted_mmap_entries += 1
            evicted += 1
        for backlog_key in list(self._recv_backlog):
            backlog = self._recv_backlog[backlog_key]
            while backlog and backlog[0][0].timestamp < before:
                backlog.popleft()
                self._backlog_size -= 1
                self.stats.evicted_backlog_parts += 1
                evicted += 1
            if not backlog:
                del self._recv_backlog[backlog_key]
        cmap_evicted = self.cmap.evict_older_than(before)
        self.stats.evicted_cmap_entries += cmap_evicted
        evicted += cmap_evicted
        for cag_id, cag in list(self._open.items()):
            # ``newest_timestamp`` is maintained incrementally (including
            # merged kernel parts via ``CAG.touch``), so the eviction tick
            # is O(open CAGs) instead of O(total buffered vertices).
            if cag.newest_timestamp < before:
                self._open.pop(cag_id, None)
                self._release_vertices(cag)
                if cag.sampled_out:
                    # Evicted, not leaked: a tombstone is dropped outright
                    # -- retaining it in ``_evicted`` would grow memory
                    # with exactly the traffic sampling exists to shed.
                    self.stats.evicted_sampled_out_cags += 1
                else:
                    self._evicted.append(cag)
                    self.stats.evicted_open_cags += 1
                evicted += 1
        return evicted

    # -- internals ----------------------------------------------------------------

    def _owner_of(self, activity: Optional[Activity]) -> Optional[CAG]:
        if activity is None:
            return None
        return self._owner.get(id(activity))

    def _finish(self, cag: CAG, end_activity: Activity) -> None:
        cag.finish()
        self._open.pop(cag.cag_id, None)
        self._release_vertices(cag)
        if cag.sampled_out:
            # A sampled-out request completed: discard the tombstone --
            # it is neither reported nor retained -- and count it.
            self.stats.sampled_out_finished += 1
            return
        self.stats.finished_cags += 1
        self._finished.append(cag)

    def _release_vertices(self, cag: CAG) -> None:
        """Release a closing CAG's per-vertex engine state.

        For every member vertex the ownership entry goes, and any
        still-pending SEND leaves the mmap (with its parked partial
        RECEIVE) so stale entries cannot capture later traffic on a
        reused connection -- and so memory stays bounded.  For
        sampled-out tombstones the context map is purged too: an entry
        whose latest activity belongs to a dropped request can only
        reproduce state the sampler decided not to keep (the
        thread-reuse guard would refuse the edge anyway, since the
        owning tombstone is gone), so dropping it is behaviour-neutral
        and releases the last reference to the dead request's
        activities.  All backends run this identically, which keeps the
        context maps -- and with them the reconstruction -- equivalent.
        """
        purge_cmap = cag.sampled_out
        for vertex in cag.vertices:
            self._owner.pop(id(vertex), None)
            if vertex.type is ActivityType.SEND:
                self.mmap.remove(vertex)
            if purge_cmap:
                key = vertex.context_key
                if self._cmap_latest.get(key) is vertex:
                    del self._cmap_latest[key]
                    self._cmap_recency.pop(key, None)
                    self.stats.purged_cmap_entries += 1


#: Candidate dispatch, indexed by the activity's Rule-2 priority (== its
#: type value; MAX is never instantiated): a tuple index beats an
#: enum-keyed dict lookup, and this runs once per candidate.  Plain
#: functions, not bound methods on the instance -- a per-engine table of
#: bound methods is a reference cycle that keeps the whole run's
#: activities alive until a gen-2 collection.
_HANDLERS = (
    CorrelationEngine._handle_begin,  # BEGIN = 0
    CorrelationEngine._handle_send,  # SEND = 1
    CorrelationEngine._handle_end,  # END = 2
    CorrelationEngine._handle_receive,  # RECEIVE = 3
)
