"""Differential fuzzing as a benchmark: coverage and seconds per seed.

Not a figure of the paper: this tracks the reproduction's own test rig.
The fuzz sweep (``repro fuzz``, :mod:`repro.fuzz`) drives generated
scenarios through the full invariant stack; the ``fuzz`` figure lists,
per seed, the shape exercised and the case cost, and this benchmark
asserts that every seed holds and that a CI fuzz budget buys more than
one shape.
"""

from conftest import run_once
from repro.experiments.figures import figure_fuzz


def test_bench_fuzz_sweep(benchmark, scale, cache):
    result = run_once(benchmark, lambda: figure_fuzz(scale, cache))

    assert len(result.rows) == scale.fuzz_seeds
    # the sweep is a correctness gate too: every invariant holds on
    # every generated seed
    assert all(row["violations"] == 0 for row in result.rows)
    assert all(row["seconds"] > 0 for row in result.rows)
    assert all(row["activities"] > 0 for row in result.rows)

    # the generator's small-bias still buys shape variety within the
    # default CI budget: several call patterns and more than one
    # workload kind per sweep
    patterns = {p for row in result.rows for p in row["patterns"].split("+")}
    assert len(patterns) >= 2
    assert len(set(result.column("workload"))) >= 2
    assert "s/seed" in result.notes
