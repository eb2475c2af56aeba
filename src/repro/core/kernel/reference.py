"""Reference rank-kernel: the array-driven candidate-selection sweep.

This module is the *semantic definition* of the kernel seam.  The golden
digest matrices are generated with this implementation; the compiled
backend (:mod:`repro.core.kernel._native`) re-implements exactly the same
decision function over exactly the same memory layout and is required to
be byte-identical to it (``tests/test_kernel.py`` proves it on the full
golden matrix and a fuzz smoke).

Layout
------
The ranker maintains one *slot* per node, in queue-registration order
(which is also the sweep's scan order -- tie-breaks depend on it).  Per
slot it keeps four parallel head columns, refreshed incrementally
whenever a queue head changes (deliver, refill into an empty queue,
noise discard, head-swap promotion, streaming ingest of a new node):

* ``head_ts``   -- ``array('d')``: head local timestamp, ``+inf`` when
  the slot's queue is empty (the empty marker; the other columns are
  stale and must not be read then),
* ``head_pri``  -- ``array('q')``: head candidate priority, which for
  activities *is* the :class:`~repro.core.activity.ActivityType` value
  (``RECEIVE == 3`` identifies receive heads),
* ``head_seq``  -- ``array('q')``: head global sequence number (the
  Rule-2 tie-break),
* ``head_keys`` -- plain list: the head's interned message key (a dense
  int) when the head is a RECEIVE, ``None`` otherwise.  Kept as boxed
  ints so both kernels probe the index dicts without re-boxing.

The decision function never mutates ranker state; it returns a packed
``code | (value << 3)`` int and writes slot lists for the two multi-slot
verdicts into the caller-provided ``blocked_out`` / ``discard_out``
scratch arrays.  The Python side performs the actual state changes
(deliver, discard, blockage resolution, refill), so determinism-critical
bookkeeping has exactly one implementation.
"""

from __future__ import annotations

import math

#: Packed decision codes (low 3 bits of the selector's return value).
#: The compiled kernel hardcodes the same values; ``tests/test_kernel``
#: asserts the two tables agree.
RULE1 = 0  #: value = slot of the Rule-1 candidate (deliver its head)
RULE2 = 1  #: value = slot of the Rule-2 minimum (deliver its head)
EMPTY = 2  #: every queue is empty (caller: exhausted / force-fetch)
DISCARD = 3  #: value = count of noise slots written to ``discard_out``
BLOCKED = 4  #: value = count of blocked slots written to ``blocked_out``
STALL = 5  #: nothing decidable below the ceiling (streaming) -- stop

_INF = math.inf


def make_selector(
    head_ts,
    head_pri,
    head_seq,
    head_keys,
    mmap_pending,
    undelivered,
    blocked_out,
    discard_out,
):
    """Bind a selector over the ranker's head columns and its two dicts:
    the engine's pending sends and the ranker's undelivered-send registry
    (message key -> sends buffered or awaiting fetch, on any node).

    The returned callable ``select(ceiling) -> int`` runs the fused
    two-sweep candidate selection of ``Ranker.rank()`` over every slot.
    The slot count is fixed at binding time: growing the columns (a
    streaming ingest registering a new node) reallocates them, which
    forces a re-bind anyway -- so the per-call argument list is just the
    delivery ceiling.  This is the hottest call in the tracer.
    """
    n = len(head_ts)
    mmap_get = mmap_pending.get
    undelivered_get = undelivered.get

    def select(ceiling):
        # Sweep 1 -- emptiness, the earliest head (for the streaming
        # ceiling check) and Rule 1: the earliest head RECEIVE whose
        # matching SEND sits in the engine's mmap.  Ties break to the
        # first slot in scan order (strict ``<``), exactly as the
        # pre-kernel loop broke them by dict iteration order.
        empty = True
        earliest = _INF
        cand_slot = -1
        cand_ts = _INF
        for slot in range(n):
            ts = head_ts[slot]
            if ts == _INF:
                continue
            empty = False
            if ts < earliest:
                earliest = ts
            if head_pri[slot] == 3 and mmap_get(head_keys[slot]):
                if ts < cand_ts:
                    cand_ts = ts
                    cand_slot = slot
        if empty:
            return EMPTY
        if earliest > ceiling:  # batch ceiling is +inf: never true
            return STALL
        if cand_slot >= 0:
            if cand_ts > ceiling:
                return STALL
            return RULE1 | cand_slot << 3

        # Sweep 2 -- Rule 1 missed, so no RECEIVE head has an mmap
        # match: classify every head as noise (discard), blocked (a
        # matching SEND is buffered or awaits fetch: never selectable)
        # or eligible, and track the Rule-2 minimum among the eligible.
        n_discard = 0
        n_blocked = 0
        best_slot = -1
        best_pri = best_ts = best_seq = 0
        for slot in range(n):
            ts = head_ts[slot]
            if ts == _INF:
                continue
            pri = head_pri[slot]
            if pri == 3:
                key = head_keys[slot]
                if undelivered_get(key, 0) > 0:
                    if ts <= ceiling:
                        blocked_out[n_blocked] = slot
                        n_blocked += 1
                    continue
                if ts <= ceiling:
                    discard_out[n_discard] = slot
                    n_discard += 1
                    continue
                # above the ceiling the noise verdict is not final: the
                # head stays eligible (and stalls below, never delivers)
            if (
                best_slot < 0
                or pri < best_pri
                or (
                    pri == best_pri
                    and (
                        ts < best_ts
                        or (ts == best_ts and head_seq[slot] < best_seq)
                    )
                )
            ):
                best_slot = slot
                best_pri = pri
                best_ts = ts
                best_seq = head_seq[slot]
        if n_discard:
            return DISCARD | n_discard << 3
        if best_slot >= 0:
            if best_ts > ceiling:
                return STALL
            return RULE2 | best_slot << 3
        return BLOCKED | n_blocked << 3

    return select
