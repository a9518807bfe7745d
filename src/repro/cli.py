"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list            # every experiment with its help line
    python -m repro fig6            # reduced-scale Fig. 6 regeneration
    python -m repro fig7 --full     # the paper's full 168-point sweep
    python -m repro all --jobs 8    # every experiment
    python -m repro fig6 --backend inline --jobs 1   # deterministic baseline
    python -m repro fig6 --fresh    # ignore cached points, recompute all
    python -m repro fig6 --retry 2  # retry failed points twice before giving up
    python -m repro trace cg --out trace.json        # Perfetto-openable timeline
    python -m repro analyze cg --out report.json     # where-did-cycles-go report

Reports are printed and saved under ``--out`` (default ``./results``);
sweep points are cached there too — incrementally, so an interrupted
sweep resumes where it died — and derived figures (7, 9) reuse the
execution-time sweeps of figures 6 and 8 from the shared warm cache.

To profile an experiment, run it in one process and recompute every
point (a pool hides the work from cProfile, a cached point does none)::

    python -m cProfile -s cumulative -m repro fig6 --jobs 1 --backend inline --fresh

``benchmarks/perf/run.py --trace`` is the per-layer profile of the
benchmark workloads.
"""

from __future__ import annotations

import argparse
import sys

from repro.dse.executor import EXECUTOR_BACKENDS
from repro.dse.experiments import DEFAULT_RESULTS_DIR, REGISTRY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medea",
        description="MEDEA (DATE 2010) reproduction: regenerate paper figures",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(REGISTRY) + ["all", "list"],
        help="which paper artifact to regenerate ('list' shows them all)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the paper's full axes (168 points per figure sweep)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for sweeps (default: cpu count - 1)",
    )
    parser.add_argument(
        "--backend", choices=sorted(EXECUTOR_BACKENDS), default=None,
        help="sweep executor backend (default: process pool, or inline "
             "when --jobs 1)",
    )
    parser.add_argument(
        "--fresh", dest="resume", action="store_false", default=True,
        help="ignore cached sweep points and recompute everything "
             "(the recomputed points still persist)",
    )
    parser.add_argument(
        "--retry", type=int, default=0, metavar="N",
        help="retry failed sweep points up to N extra rounds (default: 0)",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_RESULTS_DIR),
        help="directory for reports and the sweep cache (default: results)",
    )
    return parser


def list_experiments() -> str:
    """The ``medea list`` table, straight from the registry."""
    width = max(len(name) for name in REGISTRY)
    lines = [
        f"  {name:<{width}}  [{experiment.default_scale}]  {experiment.help}"
        for name, experiment in sorted(REGISTRY.items())
    ]
    return "available experiments:\n" + "\n".join(lines) + "\n"


def run_experiment(
    name: str, full: bool | None, jobs: int | None, out: str,
    backend: str | None = None, resume: bool = True, retries: int = 0,
) -> str:
    # full=None defers to the MEDEA_FULL environment variable.  Every
    # registered experiment runs through the sweep service with the same
    # backend/resume/retry policy.
    report = REGISTRY[name](
        full=full, jobs=jobs, cache_dir=out, backend=backend,
        resume=resume, retries=retries,
    )
    path = report.save(out)
    return f"{report.text}\n[saved to {path}; wall {report.wall_seconds:.1f}s]\n"


def run_experiments(names: list[str], full: bool | None, jobs: int | None,
                    out: str, backend: str | None = None,
                    resume: bool = True, retries: int = 0) -> None:
    for name in names:
        print(f"=== {name} ===")
        print(run_experiment(name, full, jobs, out, backend=backend,
                             resume=resume, retries=retries))


def run_trace(argv: list[str]) -> int:
    """``medea trace <workload> [--out trace.json] [--heatmap]``.

    Runs a telemetry-enabled workload and writes its Chrome trace-event
    JSON — request spans, collective phases, overlap regions, DMA
    descriptor lifecycles, NoC ejections, injected faults, and the
    sampled metric timeline — openable in ``ui.perfetto.dev``.
    """
    from repro.telemetry.chrome_trace import write_chrome_trace
    from repro.telemetry.heatmap import render_noc_report
    from repro.telemetry.workloads import TRACE_WORKLOADS

    parser = argparse.ArgumentParser(
        prog="medea trace",
        description="record a workload and export a Perfetto timeline",
    )
    parser.add_argument(
        "workload", choices=sorted(TRACE_WORKLOADS),
        help="which traced workload to run",
    )
    parser.add_argument(
        "--out", default="trace.json",
        help="trace-event JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--heatmap", action="store_true",
        help="also print the NoC spatial heatmaps",
    )
    args = parser.parse_args(argv)
    workload = TRACE_WORKLOADS[args.workload]
    system, result = workload.run()
    count = write_chrome_trace(system, args.out)
    summary = result.stats["telemetry"]
    print(
        f"traced {args.workload}: {result.total_cycles} cycles, "
        f"{summary['samples']} metric samples "
        f"(interval {summary['sample_interval']}), "
        f"overlap efficiency {summary['sampled_overlap_efficiency']:.4f}"
    )
    print(f"wrote {count} trace events to {args.out} "
          f"(open in ui.perfetto.dev)")
    if args.heatmap:
        from repro.telemetry.attribution import windowed_link_utilization
        windows = windowed_link_utilization(system.telemetry)
        print(render_noc_report(
            system.fabric.spatial_dict(), windows["windows"]
        ))
    return 0


def run_analyze(argv: list[str]) -> int:
    """``medea analyze <workload> [--out report.json] [--heatmap]``.

    Runs a workload and prints the cycle-attribution report: the
    where-did-cycles-go ledger table (per tile and aggregated, checked
    to sum to the elapsed cycles bit-exactly), top stall sources with
    fault/credit context, the ``_execute`` dispatch histogram, windowed
    link utilization, and the critical path of every attributed
    collective op.  ``--out`` also writes the full report as JSON
    (schema checked by ``benchmarks/validate_report.py``).
    """
    import json

    from repro.telemetry.attribution import build_report, render_report
    from repro.telemetry.heatmap import render_noc_report
    from repro.telemetry.workloads import TRACE_WORKLOADS

    parser = argparse.ArgumentParser(
        prog="medea analyze",
        description="run a workload and print its cycle-attribution report",
    )
    parser.add_argument(
        "workload", choices=sorted(TRACE_WORKLOADS),
        help="which workload to analyze",
    )
    parser.add_argument(
        "--out", default=None, metavar="REPORT.json",
        help="also write the full report as JSON",
    )
    parser.add_argument(
        "--heatmap", action="store_true",
        help="also print the NoC spatial heatmaps with the windowed "
             "utilization view",
    )
    args = parser.parse_args(argv)
    workload = TRACE_WORKLOADS[args.workload]
    system, __ = workload.run()
    report = build_report(system, workload=args.workload)
    print(render_report(report))
    if args.heatmap:
        windows = report["links"]["windows"] if report["links"] else None
        print()
        print(render_noc_report(system.fabric.spatial_dict(), windows))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"\nwrote report to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "trace":
        # The trace/analyze subcommands have their own argument sets;
        # intercept them before the positional-choice experiment parser.
        return run_trace(argv[1:])
    if argv and argv[0] == "analyze":
        return run_analyze(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print(list_experiments(), end="")
        return 0
    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    full = True if args.full else None  # None -> honour MEDEA_FULL
    run_experiments(names, full, args.jobs, args.out,
                    backend=args.backend, resume=args.resume,
                    retries=args.retry)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
