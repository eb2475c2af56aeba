"""Shape plans: what the analysis layer compiles once per request shape.

The paper's analysis (Section 3.2) rests on thousands of requests sharing
a handful of isomorphic CAG shapes, so the structural work behind a
request's pattern signature and latency breakdown -- the canonical
topological sort, the primary-path walk, the segment labels -- is the
same for every request of one shape.  A *shape plan* holds that work,
keyed by the labelled structure exactly as the engine built it:

    (per-vertex ``component id << 3 | type`` in insertion order,
     context-parent column, message-parent column)

(the two columns as bytes at the CAG's narrowest position width, so an
open CAG and its packed self, which holds them narrower, share a plan).

Everything in the key is structure or identity; timestamps are not.  The
primary path and its labels are a function of the key alone, so
:mod:`repro.core.latency` always reads them from the plan.  The canonical
order is a function of the key only while no timestamp broke a tie, so
:mod:`repro.core.patterns` stores a signature on the plan exactly then
and marks the plan ``timestamp_decided`` otherwise (see
:func:`repro.core.patterns.cag_signature`).

The table belongs to one run's :class:`~repro.core.interning.KeySpace`
(``keys.plans``), like the interned signatures: the component ids in
the key are that space's, and the plans go when the run's tables and
CAGs do.  It is bounded too: generated meshes reach ~0.6 distinct shapes
per request, and a table that grows with a long tail of one-off shapes
is a leak.  Once :data:`MAX_SHAPES` plans exist, a CAG of an unseen
shape gets no plan and both consumers derive it on its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .cag import CAG

#: Most distinct shapes one key space gives a plan (a plan is a few KB;
#: the paper's services have a handful of shapes, the fan-out benchmark
#: ~200).
MAX_SHAPES = 4096

#: One primary-path step: (child position, parent position, index of its
#: segment label in :attr:`ShapePlan.labels`).
PathRow = Tuple[int, int, int]


class ShapePlan:
    """What one labelled CAG structure compiles to; each half is filled by
    the module that owns the derivation, the first time it is asked."""

    __slots__ = ("signature", "timestamp_decided", "path", "labels", "json_keys")

    def __init__(self) -> None:
        #: interned ``repro.core.patterns.Signature`` shared by every CAG
        #: of the shape; stays ``None`` when ``timestamp_decided``
        self.signature: Optional[tuple] = None
        #: a timestamp ordered two same-fingerprint vertices during the
        #: compile, so the canonical order belongs to each CAG, not to the
        #: shape
        self.timestamp_decided: bool = False
        #: the primary path, in vertex order
        self.path: Optional[Tuple[PathRow, ...]] = None
        #: the path's distinct segment labels, in first-seen order: what
        #: each CAG's per-label latency sums are indexed by
        self.labels: Optional[Tuple[str, ...]] = None
        #: ``(label index, '"label": ')`` in sorted label order: the keys
        #: of the stored ``segments`` JSON text
        self.json_keys: Optional[Tuple[Tuple[int, str], ...]] = None


def vertex_codes(cag: CAG) -> Tuple[int, ...]:
    """Per-vertex ``component id << 3 | type`` in ``cag``'s key space,
    read off its columns: equal exactly when two vertices share the
    (type, hostname, program) fingerprint."""
    component_of = cag.keys.component_of
    return tuple(
        [
            component_of[context] << 3 | kind
            for context, kind in zip(cag.column("context_key"), cag.column("priority"))
        ]
    )


def plan_for(cag: CAG) -> Optional[ShapePlan]:
    """The plan shared by every CAG of ``cag``'s shape in its key space
    (remembered on the CAG's analysis memo), or ``None`` when its shape
    is new and the table is full."""
    memo = cag.analysis
    plan = memo.plan
    if plan is None:
        key = (vertex_codes(cag), *cag.parent_bytes())
        plans = cag.keys.plans
        plan = plans.get(key)
        if plan is None:
            if len(plans) >= MAX_SHAPES:
                return None
            plan = plans[key] = ShapePlan()
        memo.plan = plan
    return plan
