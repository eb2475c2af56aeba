"""Scale-out figure: throughput vs shard count and executor.

Runs :func:`repro.experiments.figures.figure_scaling` -- the same
generator behind ``repro profile --figure scaling`` -- over a skewed
four-scenario composite trace, emits ``BENCH_scaling.json``, and pins
what the one packing policy promises:

* six rows (3 shard counts x 2 executors), all over the identical trace;
* the planned makespan -- ``max(last_shard_sizes)``, an activity count,
  so it repeats exactly -- at 4 shards is no worse than at 2 shards;
* sharded == batch ``result_digest`` on the composite, both executors,
  ``max_shards`` in {None, 1, 2, 4}.

The committed baseline (``benchmarks/baselines/BENCH_scaling_baseline
.json``) is gated separately in CI via ``repro.experiments.bench
compare`` on the ``wall_s`` column.
"""

from conftest import emit_bench, run_once
from repro.core.correlator import Correlator
from repro.experiments.figures import _scaling_trace, figure_scaling
from repro.pipeline import result_digest
from repro.stream import ShardedCorrelator
from repro.stream.sharded import EXECUTOR_KINDS


def test_bench_scaling(benchmark, scale):
    result = run_once(benchmark, lambda: figure_scaling(scale))
    emit_bench(result)

    assert len(result.rows) == 6
    # Every sweep point correlates the identical trace.
    assert len({row["activities"] for row in result.rows}) == 1
    assert all(row["components"] >= 6 for row in result.rows)

    table = _scaling_trace()
    batch = result_digest(Correlator(window=scale.window).correlate(table))
    planned = {}
    for executor in EXECUTOR_KINDS:
        for max_shards in (None, 1, 2, 4):
            correlator = ShardedCorrelator(
                window=scale.window, max_shards=max_shards, executor=executor
            )
            digest = result_digest(correlator.correlate(table))
            assert digest == batch, (executor, max_shards)
            planned[max_shards] = max(correlator.last_shard_sizes)
    # More buckets never make the heaviest bucket heavier.
    assert planned[4] <= planned[2] <= planned[1]
