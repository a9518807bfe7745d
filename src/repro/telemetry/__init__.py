"""The observability layer: sampled metrics, trace export, heatmaps,
cycle attribution.

Every report here is a fold over state the machine already keeps: the
system's one :class:`~repro.kernel.trace.EventLog` (overlap efficiency,
the Chrome trace, critical paths), the per-component counters (the
sampled registry, the cycle ledgers) and the fabric's spatial matrices
(heatmaps).  Opt-in via ``SystemConfig.telemetry`` (a
:class:`TelemetryConfig`); with it unset no telemetry code runs and
every committed golden cycle count is bit-identical.  See
``examples/telemetry.py`` for the full tour.

(Trace workloads live in :mod:`repro.telemetry.workloads`, imported
lazily — they pull in the application layer, which this package root
must not.)
"""

from repro.telemetry.attribution import (
    AttributionError,
    attribution_summary,
    build_report,
    check_conservation,
    critical_paths,
    render_report,
    windowed_link_utilization,
)
from repro.telemetry.chrome_trace import (
    chrome_trace_events,
    write_chrome_trace,
)
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.heatmap import (
    render_heatmap,
    render_link_map,
    render_noc_report,
    render_panel_heatmap,
    render_panel_map,
    render_windowed_utilization,
)
from repro.telemetry.registry import (
    MetricRegistry,
    TelemetrySampler,
    sampled_overlap_efficiency,
)

__all__ = [
    "AttributionError",
    "MetricRegistry",
    "TelemetryConfig",
    "TelemetrySampler",
    "attribution_summary",
    "build_report",
    "check_conservation",
    "chrome_trace_events",
    "critical_paths",
    "render_heatmap",
    "render_link_map",
    "render_noc_report",
    "render_panel_heatmap",
    "render_panel_map",
    "render_report",
    "render_windowed_utilization",
    "sampled_overlap_efficiency",
    "windowed_link_utilization",
    "write_chrome_trace",
]
