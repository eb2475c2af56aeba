"""Columnar core -- memory of the ActivityTable vs a plain object list.

Not a paper figure: this benchmark tracks the memory side of the
interning refactor (ROADMAP item 2).  For each client count the same
classified trace is held once as a Python list of ``Activity`` objects
and once as the columnar :class:`repro.core.interning.ActivityTable`;
``tracemalloc`` measures what each representation retains and a gc scan
counts the ``Activity`` instances left alive.  The table must retain a
small fraction of the object list's bytes and keep *zero* ``Activity``
objects alive until rows are materialised at the CAG/export boundary.

The table is printed by ``repro figure interning``.
"""

from conftest import run_once
from repro.experiments.figures import figure_interning


def test_bench_interning_memory(benchmark, scale, cache):
    result = run_once(benchmark, lambda: figure_interning(scale, cache))
    assert len(result.rows) == len(scale.window_clients)
    for row in result.rows:
        # The columnar table holds no Activity objects at all (rows are
        # materialised lazily); the object list holds one per activity.
        assert row["columnar_live_activities"] <= 2
        assert row["object_live_activities"] >= row["activities"] * 0.99
        # Struct-packed arrays beat per-object storage by a wide margin;
        # 3x is a deliberately loose floor (measured ~3.4-4.3x: the
        # table keeps one shared MessageId per connection and size).
        assert row["retained_ratio"] >= 3.0
        assert row["columnar_kb"] < row["object_kb"]
