"""Simulated environment around the services: fault injection and noise
traffic generators (the services themselves are
:mod:`repro.topology` specs)."""

from .faults import DatabaseLockFault, EjbDelayFault, EjbNetworkFault, FaultConfig
from .noise import MysqlClientNoiseGenerator, NoiseConfig, SshNoiseGenerator

__all__ = [
    "DatabaseLockFault",
    "EjbDelayFault",
    "EjbNetworkFault",
    "FaultConfig",
    "MysqlClientNoiseGenerator",
    "NoiseConfig",
    "SshNoiseGenerator",
]
