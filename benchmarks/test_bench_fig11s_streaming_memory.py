"""Fig. 11s -- batch vs. streaming memory under watermark eviction.

Companion to the Fig. 11 benchmark: reruns the window sweep through the
incremental correlator with a finite eviction horizon.  At benchmark
scale the simulated runs only last a few horizon lengths, so the
headline bounded-state effect (a flat working set as the trace grows
without bound) is asserted by ``tests/test_stream.py`` on a long run;
what this benchmark pins down is that streaming never *costs* anything:
the incremental working set stays comparable to the batch one for every
window, and eviction at this horizon never drops a live request (same
completed-request count everywhere).

The process's peak memory on a streaming run is measured end to end by
``benchmarks/e2e/run.py`` (``peak_rss_mb`` on ``fanout_stream``).
"""

from conftest import run_once
from repro.experiments.figures import figure11_streaming


def test_bench_fig11s_streaming_memory(benchmark, scale, cache):
    result = run_once(benchmark, lambda: figure11_streaming(scale, cache))
    assert len(result.rows) == len(scale.window_clients) * len(scale.windows)

    # Eviction never costs accuracy at this horizon: every row completes
    # the same number of requests as the batch path.
    assert all(row["same_request_count"] for row in result.rows)

    # The streaming working set tracks the batch one (same window, same
    # trace); the sampling instants differ, so allow a small slack.
    for row in result.rows:
        assert row["stream_peak_entries"] <= 1.25 * row["batch_peak_entries"] + 64
