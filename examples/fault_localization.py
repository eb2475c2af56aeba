#!/usr/bin/env python3
"""Fault localisation: pinpoint injected performance problems.

Reproduces Section 5.4.2.  Three performance problems are injected into
the running service, one at a time:

* ``EJB_Delay``      -- a random delay inside the application tier's code;
* ``Database_Lock``  -- the ``items`` table is locked, stalling queries;
* ``EJB_Network``    -- the application-server node's NIC drops to 10 Mbps.

Each scenario is one :class:`repro.Pipeline` run (simulation source +
batch backend + :class:`repro.ProfileStage`); a
:class:`repro.DiagnosisStage` then compares each faulty profile against
the healthy session and reports which component PreciseTracer implicates.

Run with::

    python examples/fault_localization.py
"""

from __future__ import annotations

from repro import (
    BackendSpec,
    DiagnosisStage,
    FaultConfig,
    Pipeline,
    ProfileStage,
    ScenarioConfig,
    WorkloadStages,
)
from repro.topology.requests import mix_by_name

STAGES = WorkloadStages(up_ramp=1.5, runtime=8.0, down_ramp=0.5)

SCENARIOS = {
    "normal": FaultConfig.none(),
    "EJB_Delay": FaultConfig.ejb_delay_case(),
    "Database_Lock": FaultConfig.database_lock_case(),
    "EJB_Network": FaultConfig.ejb_network_case(),
}

#: The tier the paper concludes is at fault in each abnormal case.
EXPECTED_SUSPECTS = {
    "EJB_Delay": "java",
    "Database_Lock": "mysqld",
    "EJB_Network": "java",
}


def scenario_pipeline(name: str, faults: FaultConfig) -> Pipeline:
    config = ScenarioConfig(
        "rubis",
        clients=300,
        mix=mix_by_name("default"),  # the read-write mix
        faults=faults,
        stages=STAGES,
        clock_skew=0.001,
        seed=31,
    )
    return Pipeline(
        source=config,
        backend=BackendSpec.batch(window=0.010),
        stages=[ProfileStage(name)],
    )


def main() -> None:
    sessions = {}
    for name, faults in SCENARIOS.items():
        print(f"running scenario {name:14s} ({faults.describe()}) ...")
        sessions[name] = scenario_pipeline(name, faults).run()

    profiles = {name: session.analyses["profile"] for name, session in sessions.items()}
    print("\n== latency percentages per scenario ==")
    labels = sorted({label for profile in profiles.values() for label in profile.percentages})
    header = "segment".ljust(16) + "".join(name.rjust(16) for name in SCENARIOS)
    print(header)
    for label in labels:
        row = label.ljust(16)
        for name in SCENARIOS:
            row += f"{profiles[name].percentages.get(label, 0.0):16.1f}"
        print(row)

    print("\n== diagnoses ==")
    reference = sessions["normal"]
    hits = 0
    for name in SCENARIOS:
        if name == "normal":
            continue
        stage = DiagnosisStage(reference, threshold=5.0, label=name)
        result = stage.run(sessions[name])
        suspects = result.suspected_components()
        expected = EXPECTED_SUSPECTS[name]
        verdict = "OK" if expected in suspects[:2] else "MISS"
        hits += verdict == "OK"
        print(f"\n{name} (expected suspect: {expected}) -> {verdict}")
        print(result.report())

    print(f"\n{hits}/3 injected faults localised to the expected tier.")


if __name__ == "__main__":
    main()
