"""Index-map data structures used by the correlation engine.

Section 4 describes two index maps that hold the state of all unfinished
CAGs:

* ``mmap`` -- keyed by the *message identifier* of an activity; its value
  is an unmatched SEND activity with the same message identifier.  It is
  consulted both by the engine (to attach RECEIVEs) and by the ranker
  (Rule 1 and the ``is_noise`` test).
* ``cmap`` -- keyed by the *context identifier*; its value is the latest
  activity observed in that execution entity.  It is used to establish
  adjacent-context relations.

Both support the basic searching / inserting / deleting operations the
paper lists.  ``MessageMap`` generalises the paper's single-value map to a
FIFO of pending SENDs per connection so that pipelined messages on one
persistent connection cannot clobber each other.

For online (streaming) correlation both maps additionally support
watermark-based eviction (:meth:`MessageMap.evict_older_than`,
:meth:`ContextMap.evict_older_than`): entries whose activity timestamp
fell behind the stream's watermark by more than the configured horizon
are dropped, which keeps the maps bounded even when traffic contains
flows that never complete (noise, crashed requests, abandoned
connections).  See :class:`repro.stream.IncrementalEngine` for the knob
and its accuracy trade-off.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from .activity import Activity

#: Message key: the dense int one run's key space gives a directional
#: connection 4-tuple (see :mod:`repro.core.interning`).  Both maps are
#: keyed by those ints -- the engine and ranker probe them once per
#: candidate, so the key hash is pure hot-path cost.
MessageKey = int
#: Context key (dense int for a context 4-tuple, in the same space).
ContextKey = int


class MessageMap:
    """``mmap``: pending (not yet fully received) SEND activities.

    Keys are interned directional connection keys (``Activity.
    message_key`` ints); values are FIFO queues of
    SEND activities whose bytes have not all been matched by RECEIVEs yet.
    The engine counts ``Activity.size`` down in place while matching (on
    objects the run built from its rows, never a caller's), and pops the
    entry once the byte count reaches zero.
    """

    def __init__(self) -> None:
        self._pending: Dict[MessageKey, Deque[Activity]] = {}

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def __contains__(self, key: MessageKey) -> bool:
        return key in self._pending and bool(self._pending[key])

    def insert(self, send: Activity) -> None:
        """Register a SEND whose bytes are awaiting matching RECEIVEs."""
        key = send.message_key
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append(send)

    def match(self, key: MessageKey) -> Optional[Activity]:
        """Return (without removing) the oldest pending SEND for ``key``."""
        queue = self._pending.get(key)
        if not queue:
            return None
        return queue[0]

    def has_match(self, key: MessageKey) -> bool:
        """Rule 1 / ``is_noise`` test: is there a pending SEND for ``key``?

        One dict probe -- this is the single most frequently called check
        of the whole correlation hot path (every RECEIVE head consults it
        on every selection round), so it must not build anything.
        """
        queue = self._pending.get(key)
        return queue is not None and bool(queue)

    def is_pending(self, send: Activity) -> bool:
        """Is this exact SEND still awaiting bytes from its receiver?"""
        queue = self._pending.get(send.message_key)
        if not queue:
            return False
        return any(entry is send for entry in queue)

    def remove(self, send: Activity) -> None:
        """Remove a fully-received SEND from the map."""
        key = send.message_key
        queue = self._pending.get(key)
        if not queue:
            return
        try:
            queue.remove(send)
        except ValueError:
            return
        if not queue:
            del self._pending[key]

    def pending_sends(self) -> Iterator[Activity]:
        """Iterate over every pending SEND (used for memory accounting)."""
        for queue in self._pending.values():
            yield from queue

    def evict_older_than(self, before: float) -> List[Activity]:
        """Drop pending SENDs whose timestamp is below ``before``.

        Returns the evicted activities so the engine can clean up its own
        per-SEND bookkeeping (partial receives, owner map).  Used by the
        streaming path to bound memory: a SEND still pending long after
        the watermark passed it will never be matched (its RECEIVE would
        have arrived by now), so keeping it only wastes space and risks
        capturing unrelated traffic on a recycled connection.
        """
        evicted: List[Activity] = []
        for key in list(self._pending):
            queue = self._pending[key]
            if not any(send.timestamp < before for send in queue):
                continue  # common case: nothing stale, no rebuild
            kept = deque(send for send in queue if send.timestamp >= before)
            evicted.extend(send for send in queue if send.timestamp < before)
            if kept:
                self._pending[key] = kept
            else:
                del self._pending[key]
        return evicted

    def clear(self) -> None:
        self._pending.clear()


class ContextMap:
    """``cmap``: latest activity per execution entity.

    Eviction is driven by a per-context *recency* timestamp, not by the
    timestamp of the stored activity: when the engine merges a late
    kernel part into an existing vertex (a request body or response that
    arrived in several reads/writes) the stored activity keeps its first
    part's timestamp, but the context is demonstrably alive -- ``touch``
    refreshes its recency so streaming eviction cannot drop it mid-merge.
    """

    def __init__(self) -> None:
        self._latest: Dict[ContextKey, Activity] = {}
        self._recency: Dict[ContextKey, float] = {}

    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, key: ContextKey) -> bool:
        return key in self._latest

    def latest(self, key: ContextKey) -> Optional[Activity]:
        """The most recent activity observed in context ``key``."""
        return self._latest.get(key)

    def update(self, activity: Activity) -> None:
        """Record ``activity`` as the latest one of its context."""
        key = activity.context_key
        self._latest[key] = activity
        self._recency[key] = activity.timestamp

    def touch(self, key: ContextKey, timestamp: float) -> None:
        """Refresh a context's eviction recency without replacing its
        latest activity (used when kernel parts are merged in place)."""
        if key in self._latest and timestamp > self._recency[key]:
            self._recency[key] = timestamp

    def recency(self, key: ContextKey) -> Optional[float]:
        """The eviction recency of ``key`` (None when absent)."""
        return self._recency.get(key)

    def remove(self, key: ContextKey) -> None:
        self._latest.pop(key, None)
        self._recency.pop(key, None)

    def evict_older_than(self, before: float) -> int:
        """Drop entries whose recency is older than ``before``.

        An execution entity silent for longer than the eviction horizon
        either finished its request long ago or died; its ``cmap`` entry
        can only fabricate a wrong adjacent-context relation for a future
        request on a recycled pid/tid.  Returns the eviction count.
        """
        recency = self._recency
        stale = [key for key, ts in recency.items() if ts < before]
        for key in stale:
            del self._latest[key]
            del recency[key]
        return len(stale)

    def items(self) -> Iterator[Tuple[ContextKey, Activity]]:
        return iter(self._latest.items())

    def clear(self) -> None:
        self._latest.clear()
        self._recency.clear()
