"""Experiment scales.

The paper's runs last ten and a half minutes with up to 1000 emulated
clients against real hardware; replaying that verbatim under a pure-Python
discrete-event simulator would make the benchmark suite take hours.  Every
figure generator therefore accepts an :class:`ExperimentScale` that fixes
the run durations and the parameter grids.  Two scales are provided:

* ``small``  -- the default: short runtime sessions and a thinned grid,
  suitable for CI and for ``pytest benchmarks/``;
* ``full``   -- the paper's grids (clients 100..1000 in steps of 100,
  windows up to 100 s) with longer runtime sessions.

Select via the ``REPRO_SCALE`` environment variable or pass a scale
explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from ..topology.workload import WorkloadStages

#: Environment variable selecting the experiment scale.
SCALE_ENV = "REPRO_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """Grid and duration settings shared by the figure generators."""

    name: str
    #: stage durations used by every run
    stages: WorkloadStages
    #: base RNG seed
    seed: int = 17
    #: clock skew across service nodes used by the performance figures
    clock_skew: float = 0.001
    #: default sliding window for traces
    window: float = 0.010
    #: client counts for the request/throughput figures (Fig. 8, 9, 12, 13, 16)
    client_series: Tuple[int, ...] = (100, 300, 500, 700, 900)
    #: client counts for the window sweeps (Fig. 10, 11)
    window_clients: Tuple[int, ...] = (200, 500, 800)
    #: sliding-window sizes for the sweeps (seconds)
    windows: Tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0)
    #: client counts for the latency-percentage figure (Fig. 15)
    fig15_clients: Tuple[int, ...] = (500, 600, 700, 800)
    #: client count for the fault-injection figure (Fig. 17)
    fault_clients: int = 300
    #: client counts for the noise figure (Fig. 14)
    noise_clients: Tuple[int, ...] = (100, 300, 500)
    #: noise-figure sliding window (the paper uses 2 ms)
    noise_window: float = 0.002
    #: accuracy-table grid
    accuracy_clients: Tuple[int, ...] = (100, 400)
    accuracy_windows: Tuple[float, ...] = (0.010, 1.0)
    accuracy_skews: Tuple[float, ...] = (0.001, 0.500)
    accuracy_workloads: Tuple[str, ...] = ("browse_only", "default")
    #: client counts for the baseline comparison
    baseline_clients: Tuple[int, ...] = (100, 400)
    #: sampling rates for the overhead-control figure (1.0 = trace all)
    sampling_rates: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.1)
    #: consecutive generated seeds swept by the fuzz figure/benchmark
    fuzz_seeds: int = 12
    #: uniform sampling rate the fuzz invariants are exercised at
    fuzz_sampling_rate: float = 0.5
    #: scenario-library scenarios swept by the overhead-control figure
    sampling_scenarios: Tuple[str, ...] = ("rubis", "fanout_aggregator", "cache_aside")

    @property
    def max_threads_values(self) -> Tuple[int, ...]:
        """MaxThreads settings compared by Fig. 16."""
        return (40, 250)


SMALL = ExperimentScale(
    name="small",
    stages=WorkloadStages(up_ramp=1.5, runtime=8.0, down_ramp=0.5),
)

FULL = ExperimentScale(
    name="full",
    stages=WorkloadStages(up_ramp=2.0, runtime=25.0, down_ramp=1.0),
    client_series=tuple(range(100, 1001, 100)),
    window_clients=(200, 500, 800),
    windows=(0.001, 0.01, 0.1, 1.0, 10.0, 100.0),
    fig15_clients=(500, 600, 700, 800),
    noise_clients=(100, 300, 500, 700, 900),
    accuracy_clients=(100, 400, 800),
    accuracy_windows=(0.001, 0.010, 0.1, 1.0, 10.0),
    accuracy_skews=(0.001, 0.050, 0.100, 0.500),
    sampling_rates=(1.0, 0.75, 0.5, 0.25, 0.1, 0.05),
    fuzz_seeds=50,
    sampling_scenarios=(
        "rubis",
        "five_tier_chain",
        "fanout_aggregator",
        "cache_aside",
        "replicated_lb",
    ),
)

SCALES = {scale.name: scale for scale in (SMALL, FULL)}


def default_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (defaults to ``small``)."""
    name = os.environ.get(SCALE_ENV, "small").strip().lower()
    return SCALES.get(name, SMALL)
