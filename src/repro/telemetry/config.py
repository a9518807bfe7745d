"""Telemetry configuration: the opt-in switch for the observability layer.

Kept free of imports from the system layer so
:class:`~repro.system.config.SystemConfig` can embed it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class TelemetryConfig:
    """What the telemetry subsystem records when enabled.

    Attached to :class:`~repro.system.config.SystemConfig` as
    ``telemetry`` (default ``None`` — with it unset, no telemetry code
    runs and every committed golden cycle count is bit-identical; the
    only hot-path cost anywhere is the existing is-it-None attribute
    check).  With it set, a timing-neutral sampler snapshots every
    registered counter at ``sample_interval``-cycle cadence, hardware
    events (NoC ejects, DMA descriptor lifecycles) are recorded in the
    system's :class:`~repro.kernel.trace.EventLog`, and the NoC keeps
    per-link / per-switch spatial matrices.
    """

    #: Cycles between metric snapshots (the timeline resolution).
    sample_interval: int = 4096
    #: Arm cycle attribution: the eMPI runtime brackets every blocking
    #: collective with zero-cycle ``cp+``/``cph``/``cp-`` events so the
    #: critical-path extractor (:mod:`repro.telemetry.attribution`) can
    #: thread causal edges through each op.  The per-tile cycle ledgers
    #: themselves ride the always-on state counters and need no flag.
    attribution: bool = False

    def validate(self) -> None:
        if self.sample_interval < 1:
            raise ConfigError(
                f"sample_interval must be >= 1, got {self.sample_interval}"
            )
