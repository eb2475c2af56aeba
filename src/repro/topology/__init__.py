"""Declarative topology & workload subsystem.

Service emulation as data: a :class:`TopologySpec` describes the tiers
(roles, ports, worker pools, replicas, downstream call patterns), a
:class:`WorkloadSpec` describes how clients drive the frontend
(closed-loop sessions, open-loop Poisson arrivals or bursty on/off
phases), and one generic tier engine (:mod:`repro.topology.engine`)
interprets any such spec on the simulated cluster.  The paper's RUBiS
deployment (Fig. 7) is just one spec in the scenario library
(:mod:`repro.topology.library`, catalogue in
:mod:`repro.topology.requests`) and produces byte-identical traces to the
original hand-written tiers.  A :class:`ScenarioConfig` names a scenario
plus per-run patches (client count, pool sizes, request mix, noise,
faults, ...); :func:`run_scenario` runs it.
"""

from .deployment import (
    RunSettings,
    TopologyDeployment,
    TopologyRunResult,
)
from .generator import (
    DEFAULT_LIMITS,
    WORKLOAD_SHAPES,
    GeneratorLimits,
    entity_exclusive_step,
    generate_scenario,
    scenario_shape,
)
from .groundtruth import GroundTruthRecorder, TracedRequest
from .library import (
    SCENARIOS,
    Scenario,
    ScenarioConfig,
    get_scenario,
    run_scenario,
    scenario_names,
)
from .scenario_io import (
    ScenarioFileError,
    dump_scenario,
    load_scenario,
    loads_scenario,
    register_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .spec import TierSpec, TopologyError, TopologySpec, WorkloadSpec
from .workload import (
    BurstyEmulator,
    ClientEmulator,
    ClientMetrics,
    CompletedRequest,
    OpenLoopEmulator,
    WorkloadStages,
    make_emulator,
)

__all__ = [
    "BurstyEmulator",
    "ClientEmulator",
    "ClientMetrics",
    "CompletedRequest",
    "DEFAULT_LIMITS",
    "GeneratorLimits",
    "GroundTruthRecorder",
    "OpenLoopEmulator",
    "RunSettings",
    "SCENARIOS",
    "Scenario",
    "ScenarioConfig",
    "ScenarioFileError",
    "TierSpec",
    "TopologyDeployment",
    "TopologyError",
    "TopologyRunResult",
    "TopologySpec",
    "TracedRequest",
    "WORKLOAD_SHAPES",
    "WorkloadSpec",
    "WorkloadStages",
    "dump_scenario",
    "entity_exclusive_step",
    "generate_scenario",
    "get_scenario",
    "load_scenario",
    "loads_scenario",
    "make_emulator",
    "register_scenario",
    "run_scenario",
    "scenario_from_dict",
    "scenario_names",
    "scenario_shape",
    "scenario_to_dict",
]
