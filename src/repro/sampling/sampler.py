"""The per-engine sampling decision object and the root-hash invariant.

Every request has exactly one *causal root*: the BEGIN activity the
classifier emits for the first frontend read of the request.  The
sampler decides once, at that root, whether the request is traced; the
engine then materialises either a full CAG or a memory-light tombstone
(:class:`repro.core.cag.SampledOutCAG`) that keeps the index maps
consistent but retains no edges and is discarded on completion.

**The determinism invariant.**  The uniform and adaptive policies decide
by hashing the root's identity -- its context identifier, its message
identifier and its timestamp -- with a keyed BLAKE2b digest mapped to a
position in ``[0, 1)``.  The hash consumes nothing about the run but the
root activity itself, so

* re-running the same trace re-samples the same subset,
* batch, streaming and sharded backends (which all see the same BEGIN
  objects) admit the identical requests, and
* lowering the rate shrinks the subset *monotonically*: the requests
  sampled at rate ``r`` are exactly those sampled at any rate ``>= r``.

The budget policy is arrival-order dependent by nature ("the first N
roots of each second"), so its decisions are frozen by
:func:`precompute_decisions` -- a cheap pre-pass that identifies the
roots of a trace and applies the budget in root timestamp order, making
the decision set a property of the trace rather than of any backend's
processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.activity import sort_key

RootKey = Tuple[tuple, tuple, float]

#: ``2 ** 64`` as a float divisor for mapping digests to ``[0, 1)``.
_HASH_SPAN = float(2**64)

#: Alias documenting what a frozen decision set is: the admitted roots.
FrozenDecisions = FrozenSet[RootKey]


def root_key(activity) -> RootKey:
    """Identity of a causal root, as logged: the root's context id, its
    message id (connection 4-tuple) and its local timestamp.

    The timestamp is rounded to nanoseconds -- the same canonical
    precision :func:`repro.pipeline.result_digest` fingerprints with --
    so clones and pickle round trips key identically.

    Deliberately built from the *original* string/tuple identity, not
    the interned ``context_key``/``message_key`` ints: interned ids are
    an artefact of one process's ingest order, and the sampled subset
    must be a property of the trace alone (the determinism invariant in
    the module docstring).
    """
    return (
        activity.context.as_tuple(),
        activity.message.connection_key(),
        round(activity.timestamp, 9),
    )


def root_position(activity, salt: int = 0) -> float:
    """Deterministic hash position of a root in ``[0, 1)``.

    Keyed BLAKE2b over the :func:`root_key` repr (nested tuples of
    strings, ints and a rounded float -- reprs are stable across
    processes and Python versions, the property the golden digests rely
    on).  ``salt`` rotates the subset without changing its statistics.
    """
    digest = blake2b(
        repr(root_key(activity)).encode("utf-8"),
        digest_size=8,
        key=salt.to_bytes(8, "big", signed=True),
    ).digest()
    return int.from_bytes(digest, "big") / _HASH_SPAN


@dataclass
class SamplerStats:
    """Counters describing one sampler's decisions."""

    roots_seen: int = 0
    admitted: int = 0
    rejected: int = 0
    #: adaptive policy only: controller observations and rate extremes
    rate_updates: int = 0
    min_rate_seen: float = math.inf
    max_rate_seen: float = -math.inf


class RequestSampler:
    """Decides, at each causal root, whether the request is traced.

    Built from a :class:`~repro.sampling.spec.SamplingSpec` via
    :meth:`~repro.sampling.spec.SamplingSpec.make_sampler`; one instance
    drives exactly one engine (it is mutable: budget counters, adaptive
    rate).  ``decisions`` freezes the budget policy to a pre-computed
    admitted-root set (see :func:`precompute_decisions`).
    """

    def __init__(self, spec, decisions: Optional[FrozenDecisions] = None) -> None:
        self.spec = spec
        self.stats = SamplerStats()
        self._decisions = decisions
        self._rate = spec.rate
        self._salt = spec.salt
        self._controller = spec.controller
        self._tick_countdown = (
            self._controller.interval if self._controller is not None else 0
        )
        # budget fallback (no frozen decisions): admitted roots per
        # one-second bucket of trace time, in engine delivery order
        self._bucket_counts: Dict[int, int] = {}

    @property
    def is_adaptive(self) -> bool:
        return self._controller is not None

    @property
    def current_rate(self) -> float:
        """The admission rate in force (fixed except for ``adaptive``)."""
        return self._rate

    # -- the decision --------------------------------------------------------

    def admit(self, root) -> bool:
        """Trace this request?  Called once per causal root (BEGIN)."""
        self.stats.roots_seen += 1
        kind = self.spec.kind
        if kind == "budget":
            if self._decisions is not None:
                admitted = root_key(root) in self._decisions
            else:
                bucket = int(math.floor(root.timestamp))
                count = self._bucket_counts.get(bucket, 0)
                admitted = count < self.spec.budget_per_second
                if admitted:
                    self._bucket_counts[bucket] = count + 1
        else:  # uniform / adaptive: hash position against the rate
            admitted = (
                self._rate >= 1.0 or root_position(root, self._salt) < self._rate
            )
        if admitted:
            self.stats.admitted += 1
        else:
            self.stats.rejected += 1
        return admitted

    # -- the adaptive feedback loop ------------------------------------------

    def tick(self, open_cags: int) -> None:
        """One correlated candidate passed: maybe run a controller step.

        Called by the engine once per candidate (only wired up for
        adaptive specs).  The cadence is counted in *candidates*, the
        one clock every sequential driver shares, so batch and
        streaming runs observe the engine at identical points and make
        identical decisions.
        """
        self._tick_countdown -= 1
        if self._tick_countdown > 0:
            return
        controller = self._controller
        self._tick_countdown = controller.interval
        self._rate = controller.update(open_cags, self._rate)
        stats = self.stats
        stats.rate_updates += 1
        if self._rate < stats.min_rate_seen:
            stats.min_rate_seen = self._rate
        if self._rate > stats.max_rate_seen:
            stats.max_rate_seen = self._rate


# ---------------------------------------------------------------------------
# the budget pre-pass: freeze decisions as a property of the trace
# ---------------------------------------------------------------------------


def iter_roots(activities: Iterable) -> List:
    """The causal roots of a trace, in root timestamp order.

    A BEGIN is a *root* unless the engine would merge it into the
    previous BEGIN as a late kernel part of the same request body.  The
    engine merges (see ``CorrelationEngine._handle_begin``) exactly when
    the context's previous activity is a BEGIN with the same message key
    and nothing else has been chained since -- i.e. within an unbroken
    per-context run of BEGINs sharing one message key.  This scan
    replays that rule per context in node-local order (each context
    lives on one node, so local timestamps order it), with one
    deliberate approximation: *any* intervening activity breaks a run
    here, while in the engine an activity that never becomes the
    context's latest (e.g. a RECEIVE ultimately discarded as noise, or
    matched only partially) leaves the merge chain intact -- deciding
    that exactly would mean replaying the whole message-balance state.
    The approximation can only split one request into an extra phantom
    root, never fuse two, so a per-second budget stays a hard cap (a
    phantom may waste a slot in its second); and since every backend
    shares the frozen set, cross-backend equivalence is unaffected.
    """
    by_context: Dict[int, List] = {}
    for activity in activities:
        # BEGIN has Rule-2 priority 0; everything else breaks a run.
        # Grouping by the interned context key is equivalent to grouping
        # by the raw tuple (interning is injective).
        by_context.setdefault(activity.context_key, []).append(activity)

    roots: List = []
    for entries in by_context.values():
        entries.sort(key=sort_key)
        run_key = None  # message key of the open BEGIN run, if any
        for activity in entries:
            if activity.priority == 0:  # BEGIN
                if run_key is None or run_key != activity.message_key:
                    roots.append(activity)
                    run_key = activity.message_key
            else:
                run_key = None
    roots.sort(key=lambda a: (a.timestamp, a.seq))
    return roots


def precompute_decisions(activities: Iterable, spec) -> FrozenDecisions:
    """Freeze a spec's decisions for one trace: the admitted root keys.

    Only the budget policy genuinely needs this (its decisions depend on
    root arrival order); for the uniform policy the frozen set simply
    reproduces what :meth:`RequestSampler.admit` would decide, which can
    be useful for reporting.  Adaptive specs are rejected: their rate is
    steered by the engine at run time, so no decision set exists before
    the run.  The result is a plain frozenset of :func:`root_key` tuples,
    which the sharded driver hands to every shard.
    """
    if spec.kind == "adaptive":
        raise ValueError(
            "adaptive sampling decisions are made at run time (the rate "
            "follows the engine's state) and cannot be precomputed"
        )
    roots = iter_roots(activities)
    if spec.kind == "budget":
        budget = spec.budget_per_second
        taken: Dict[int, int] = {}
        admitted = []
        for root in roots:
            bucket = int(math.floor(root.timestamp))
            count = taken.get(bucket, 0)
            if count < budget:
                taken[bucket] = count + 1
                admitted.append(root)
        return frozenset(root_key(root) for root in admitted)
    rate = spec.rate
    return frozenset(
        root_key(root)
        for root in roots
        if rate >= 1.0 or root_position(root, spec.salt) < rate
    )
