"""Shape plans: what the analysis layer compiles once per request shape.

The paper's analysis (Section 3.2) rests on thousands of requests sharing
a handful of isomorphic CAG shapes, so the structural work behind a
request's pattern signature and latency breakdown -- the canonical
topological sort, the primary-path walk, the segment labels -- is the
same for every request of one shape.  A *shape plan* holds that work,
keyed by the labelled structure exactly as the engine built it:

    (per-vertex ``component id << 3 | type`` in insertion order,
     context-parent column, message-parent column)

Everything in the key is structure or identity; timestamps are not.  The
primary path and its labels are a function of the key alone, so
:mod:`repro.core.latency` always reads them from the plan.  The canonical
order is a function of the key only while no timestamp broke a tie, so
:mod:`repro.core.patterns` stores a signature on the plan exactly then
and marks the plan ``timestamp_decided`` otherwise (see
:func:`repro.core.patterns.cag_signature`).

The table is process-wide, like the interned signatures, and bounded:
generated meshes reach ~0.6 distinct shapes per request, and a table
that grows with a long tail of one-off shapes is a leak.  Once
:data:`MAX_SHAPES` plans exist, a CAG of an unseen shape gets no plan and
both consumers derive it on its own.  Only ``dict.get`` / ``setdefault``
touch the table, and two threads racing to fill one plan store equal
values, so the thread executor needs no lock.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .activity import Activity
from .cag import CAG
from .interning import INTERNER

#: Most distinct shapes that get a plan (a plan is a few KB; the paper's
#: services have a handful of shapes, the fan-out benchmark ~200).
MAX_SHAPES = 4096

#: One primary-path step: (child position, parent position, segment label).
PathRow = Tuple[int, int, str]


class ShapePlan:
    """What one labelled CAG structure compiles to; each half is filled by
    the module that owns the derivation, the first time it is asked."""

    __slots__ = ("signature", "timestamp_decided", "path")

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


_PLANS: Dict[tuple, ShapePlan] = {}

_context_components = INTERNER._context_components


def vertex_codes(vertices: Sequence[Activity]) -> Tuple[int, ...]:
    """Per-vertex ``component id << 3 | type``: equal exactly when two
    vertices share the (type, hostname, program) fingerprint."""
    try:
        return tuple([_context_components[v.context_key] << 3 | v.priority for v in vertices])
    except KeyError:
        # A context no plan has met yet: give every member its component
        # id (the miss path takes the interner's lock), then read again.
        for vertex in vertices:
            INTERNER.component_of(vertex.context_key)
        return vertex_codes(vertices)


def plan_for(cag: CAG) -> Optional[ShapePlan]:
    """The plan shared by every CAG of ``cag``'s shape (remembered on the
    CAG's analysis memo), or ``None`` when the shape is new and the table
    is full."""
    memo = cag.analysis
    plan = memo.plan
    if plan is None:
        context_parents, message_parents = cag.parent_columns
        key = (
            vertex_codes(cag.vertices),
            context_parents.tobytes(),
            message_parents.tobytes(),
        )
        plan = _PLANS.get(key)
        if plan is None:
            if len(_PLANS) >= MAX_SHAPES:
                return None
            plan = _PLANS.setdefault(key, ShapePlan())
        memo.plan = plan
    return plan
