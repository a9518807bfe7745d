"""Canonical configurations beyond the ``SystemConfig()`` reference machine."""

from __future__ import annotations

from repro.system.config import SystemConfig


def cg_reference_config(**overrides: object) -> SystemConfig:
    """The overlap proof-point machine: the Section II reference scaled
    to 8 workers — the mesh on which the CG acceptance comparison
    (overlap on vs. off) is run and logged."""
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    if overrides:
        config = config.with_changes(**overrides)
    return config
