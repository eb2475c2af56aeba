"""Fig. 9 -- correlation time vs. number of serviced requests.

Paper shape: the Correlator's running time grows linearly with the number
of requests processed (window fixed at 10 ms).

This reproduces the figure's shape only.  Correlation time is measured,
beside every other layer, by the end-to-end benchmark
(``benchmarks/e2e/run.py``), which is also the perf gate.
"""

from conftest import run_once
from repro.experiments.figures import figure9


def test_bench_fig09_correlation_time(benchmark, scale, cache):
    result = run_once(benchmark, lambda: figure9(scale, cache))
    requests = result.column("requests")
    times = result.column("correlation_time_s")
    assert all(value > 0 for value in times)

    # Correlating several times more requests must take noticeably longer.
    assert requests[-1] > 2 * requests[0]
    assert times[-1] > times[0]

    # Per-request cost stays within a small constant factor across the
    # sweep (linear scaling, not quadratic blow-up).
    per_request = [time / max(1, count) for time, count in zip(times, requests)]
    assert max(per_request) < 8 * min(per_request)
