"""System assembly: configuration, builder and the MedeaSystem facade.

This is the package users start from::

    from repro.system import MedeaSystem, SystemConfig

    system = MedeaSystem(SystemConfig(n_workers=4, cache_size_kb=16))
    system.load_programs([my_program] * 4)
    system.run()

The configuration axes mirror the paper's design-space exploration: number
of worker cores (the MPMMU adds one more node), L1 cache size and write
policy, plus the NoC, arbiter and DDR-latency knobs a test or ablation turns.
"""

from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

__all__ = [
    "MedeaSystem",
    "SystemConfig",
]
