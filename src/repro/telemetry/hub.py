"""TelemetryHub: the sampled-metrics half of a telemetry-enabled system.

Systems build a hub when ``SystemConfig.telemetry`` is set; it owns the
metric registry the periodic sampler fills and closes the timeline at
the end of the run.  (Events are not its business: every component
writes those straight to the system's
:class:`~repro.kernel.trace.EventLog`.)
"""

from __future__ import annotations

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.registry import MetricRegistry


class TelemetryHub:
    """The metric registry plus its end-of-run bookkeeping."""

    def __init__(self, config: TelemetryConfig) -> None:
        self.registry = MetricRegistry(config.sample_interval)
        self._finalized_at: int | None = None

    def finalize(self, cycle: int) -> None:
        """Take the end-of-run sample (idempotent per cycle).

        The periodic sampler lands on interval boundaries; this closes
        the timeline at the actual last cycle so totals match the
        end-of-run counters exactly.
        """
        if self._finalized_at != cycle:
            self.registry.sample(cycle)
            self._finalized_at = cycle

    def describe(self) -> str:
        """Last-snapshot summary line for watchdog/timeout reports."""
        return self.registry.describe()
