"""Overhead control -- sampling rate vs. accuracy and correlation cost.

Not a figure of the paper: the 2009 system bounds analysis overhead by
splitting correlation across machines, while per-request sampling is the
complementary axis that precise (non-probabilistic) correlation uniquely
enables -- trace a deterministic subset exactly instead of everything
approximately.  This benchmark sweeps the uniform sampling rate across
the scenario library and asserts the shape of the trade (``repro figure
sampling`` prints it): analytical fidelity of the sampled ranked report
on one side, correlation time and engine state on the other.
"""

from conftest import run_once
from repro.experiments.figures import figure_sampling


def test_bench_sampling_rate_sweep(benchmark, scale, cache):
    result = run_once(benchmark, lambda: figure_sampling(scale, cache))

    assert {row["scenario"] for row in result.rows} == set(scale.sampling_scenarios)
    for row in result.rows:
        # the sampler selects, never approximates: the sampled report can
        # lose patterns, but whatever it keeps is exact
        assert 0.0 <= row["pattern_coverage"] <= 1.0
        assert row["requests_sampled"] <= row["requests_full"]

    for scenario in scale.sampling_scenarios:
        rows = {
            row["rate"]: row
            for row in result.rows
            if row["scenario"] == scenario
        }
        full = rows[1.0]
        # rate 1.0 is the in-band self-check: identical to the unsampled run
        assert full["requests_sampled"] == full["requests_full"]
        assert full["pattern_coverage"] == 1.0
        assert full["profile_drift_pp"] == 0.0
        # the realised fraction tracks the configured rate monotonically
        # (nested subsets: lowering the rate can only drop requests) ...
        ordered = [rows[rate] for rate in sorted(rows)]
        fractions = [row["sample_fraction"] for row in ordered]
        assert fractions == sorted(fractions)
        # ... and sampling sheds engine state at the lowest rate
        assert ordered[0]["state_vs_full"] <= 1.0
