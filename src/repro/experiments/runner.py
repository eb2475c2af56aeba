"""Shared run infrastructure for the figure generators.

Several figures reuse the same simulated runs (e.g. Fig. 8 and Fig. 9 both
need the Browse_Only client sweep, Fig. 10 and Fig. 11 both need the
window-sweep runs).  :class:`RunCache` memoises completed runs keyed by
their configuration so a full figure suite performs each distinct
simulation exactly once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..topology.deployment import TopologyRunResult
from ..topology.library import ScenarioConfig, run_scenario


def config_key(config: ScenarioConfig) -> str:
    """A stable identity for a run configuration.

    The repr of what the run is built from (``config.run_inputs()``:
    trees of frozen/simple dataclasses, so the repr is deterministic and
    complete), not of the config itself: two configs that describe one
    run share a key, so a pool size spelled out at its default (Fig. 16's
    ``MaxThreads = 40`` series) or the scenario's own mix passed
    explicitly reuses the plain run.
    """
    return repr(config.run_inputs())


@dataclass
class RunCache:
    """Memoises simulation runs by configuration."""

    runs: Dict[str, TopologyRunResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, config: ScenarioConfig) -> TopologyRunResult:
        key = config_key(config)
        cached = self.runs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = run_scenario(config)
        self.runs[key] = result
        return result

    def clear(self) -> None:
        self.runs.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.runs)


#: Cache shared by every figure generator in this process (benchmarks and
#: the CLI both profit from reuse across figures).
SHARED_CACHE = RunCache()


def get_run(config: ScenarioConfig, cache: Optional[RunCache] = None) -> TopologyRunResult:
    """Fetch (or execute) the run for ``config`` using the shared cache."""
    target = cache if cache is not None else SHARED_CACHE
    return target.get(config)

