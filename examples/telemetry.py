"""The observability stack: timelines, heatmaps and sampled metrics.

Every layer of the machine keeps counters; this walkthrough turns on
``SystemConfig.telemetry`` (a :class:`~repro.telemetry.TelemetryConfig`)
and shows the three views the telemetry subsystem builds from them:

1. **A Chrome trace-event timeline** — eMPI request lifecycles,
   collective phases, overlap regions, DMA descriptor lifecycles,
   injected faults and the sampled metric series, exported as
   ``trace.json`` and openable in ``ui.perfetto.dev`` with one tile per
   process track.
2. **NoC spatial heatmaps** — per-link transit counts and per-switch
   deflection/stall matrices rendered as ASCII shade maps, so congestion
   has coordinates instead of being one global number.
3. **A sampled metric timeline** — the ``MetricRegistry`` snapshots
   counter *deltas* on a fixed cadence; summing two of those series
   reproduces the CG overlap efficiency the apps compute from their own
   counters, which is the cross-check that the sampler sees the truth.

Telemetry is opt-in and bookkeeping-only: with it off (the default) the
hot paths pay a single attribute check and every committed golden stays
bit-identical; with it on, cycle counts do not move.

Run with::

    PYTHONPATH=src python examples/telemetry.py
"""

from __future__ import annotations

from repro.telemetry.chrome_trace import chrome_trace_events, write_chrome_trace
from repro.telemetry.heatmap import render_noc_report
from repro.telemetry.registry import sampled_overlap_efficiency
from repro.telemetry.workloads import run_trace_workload

OUT = "telemetry_trace.json"


def record_and_export():
    print("recording the full-stack CG workload (8 workers, ring "
          "allreduce,\nDMA engine, seeded faults, telemetry on) ...")
    system, result = run_trace_workload("cg")
    summary = result.stats["telemetry"]
    print(f"  ran {result.total_cycles} cycles, validated={result.validated}")
    print(f"  sampler: {summary['samples']} snapshots every "
          f"{summary['sample_interval']} cycles")
    print(f"  event log: {len(system.events.program)} program events, "
          f"{summary['trace_events']} hardware/fault events in the ring "
          f"({summary['trace_dropped']} dropped)")

    count = write_chrome_trace(system, OUT)
    tracks = {(e["pid"], e["tid"]) for e in chrome_trace_events(system)
              if e["ph"] != "M"}
    print(f"\nwrote {count} trace events on {len(tracks)} tracks to {OUT}")
    print("open it in ui.perfetto.dev: one process per tile, with request/")
    print("collective/overlap/DMA span tracks, fault instants and counter "
          "series.\n")
    return system, result


def spatial_view(system) -> None:
    print("NoC spatial view (the same matrices the DSE noc report embeds):")
    print(render_noc_report(system.fabric.spatial_dict()))
    print()


def sampled_metrics_cross_check(system, result) -> None:
    registry = system.telemetry
    sampled = sampled_overlap_efficiency(registry)
    print("sampled-timeline cross-check:")
    print(f"  overlap efficiency from the app's own counters: "
          f"{result.overlap_efficiency:.4f}")
    print(f"  recomputed from sampled registry deltas alone:  {sampled:.4f}")
    assert abs(sampled - result.overlap_efficiency) < 1e-9
    print("  identical — the sampler's delta series carry the full signal.\n")

    print("busiest sampled series (total over the run):")
    totals = sorted(registry.totals().items(), key=lambda kv: -kv[1])[:6]
    width = max(len(name) for name, __ in totals)
    for name, total in totals:
        print(f"  {name:<{width}}  {total:>12,}")


def main() -> None:
    system, result = record_and_export()
    spatial_view(system)
    sampled_metrics_cross_check(system, result)


if __name__ == "__main__":
    main()
