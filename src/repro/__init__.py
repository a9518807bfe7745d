"""MEDEA: hybrid shared-memory/message-passing NoC multiprocessor.

A cycle-level, fully deterministic simulator of the architecture published
as *"MEDEA: a Hybrid Shared-memory/Message-passing Multiprocessor
NoC-based Architecture"* (Tota, Casu, Ruo Roch, Rostagno, Zamboni — DATE
2010), together with the parallel Jacobi workloads, design-space
exploration harness, area model and kill-rule analysis needed to reproduce
every figure of the paper's evaluation.

Quick start::

    from repro import MedeaSystem, SystemConfig
    from repro.apps.jacobi import JacobiParams, run_jacobi

    result = run_jacobi(SystemConfig(n_workers=4, cache_size_kb=16),
                        JacobiParams(n=16, iterations=4))
    print(result.cycles_per_iteration)

See ``ROADMAP.md`` for where the reproduction stands, ``CHANGES.md`` for
what each change measured, and ``python -m repro list`` for the experiments.
"""

from repro.errors import (
    ConfigError,
    DeadlockError,
    MedeaError,
    ProtocolError,
    SimulationError,
)
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

__version__ = "1.1.0"

__all__ = [
    "ConfigError",
    "DeadlockError",
    "MedeaError",
    "MedeaSystem",
    "ProtocolError",
    "SimulationError",
    "SystemConfig",
    "__version__",
]
