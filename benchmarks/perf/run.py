"""The MEDEA benchmark: host speed by phase, exact simulated cycles, and
a per-layer trace, over eight named workloads.

From the repository root::

    python3 benchmarks/perf/run.py                       # all workloads
    python3 benchmarks/perf/run.py --trace --json out.json
    python3 benchmarks/perf/run.py --quick               # goldens only
    python3 benchmarks/perf/run.py --workload jacobi_wt_8w --seconds 10

Without ``--workload`` every workload runs alone in a fresh child
process, one at a time.  With it, this process is that child: it prints
the metrics by name and, as its last line, the one-object result the
benchmark driver reads.  Exit status is nonzero if any repetition failed
its correctness gate.  See README.md beside this file for the metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The driver's command cannot set PYTHONPATH, so find the simulator here.
sys.path.insert(0, str(ROOT / "src"))

from layers import measure_per_layer  # noqa: E402
from metrics import END_TO_END, FAILED_SHARE, PER_LAYER  # noqa: E402
from phases import MIN_REPS, measure_end_to_end  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

SCHEMA = "medea.perfbench/1"
DEFAULT_SEED = 3
DEFAULT_REPS = 9
#: Untraced repetitions beside the traced one (its ratios' denominators).
TRACE_REPS = 3


def measure(
    name: str, traced: bool, seed: int, reps: int, seconds: float | None,
    quick: bool,
) -> dict:
    """One pass over one workload, in this process."""
    workload = BY_NAME[name]
    if quick:
        reps = 1
    if traced:
        record = measure_per_layer(workload, min(reps, TRACE_REPS), seconds)
    else:
        record = measure_end_to_end(workload, seed, reps, seconds, quick)
    record["config"] = workload.config.label()
    record["params"] = repr(workload.params)
    record["tiles"] = workload.config.n_nodes
    return record


def _child(conn, *args) -> None:
    with conn:
        conn.send(measure(*args))


def measure_isolated(*args) -> dict:
    """:func:`measure` in a fresh interpreter, so one workload's heap,
    caches and peak RSS cannot touch the next one's."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, *args))
    process.start()
    sender.close()
    try:
        with receiver:
            return receiver.recv()
    except EOFError:
        return {"gate": {
            "attempted": 1, "failed": 1, "failed_share": 1.0,
            "failures": ["the workload's process died without a result"],
        }}
    finally:
        process.join()


def reported(record: dict, traced: bool) -> dict:
    """The pass's metrics, each with its table's unit: the per-layer
    table, or the end-to-end one plus ``failed_share``."""
    if traced:
        values, table = record.get("per_layer", {}), PER_LAYER
    else:
        values, table = record.get("end_to_end", {}), END_TO_END
        if values:
            share = {"value": record["gate"]["failed_share"]}
            values = {**values, FAILED_SHARE[0]: share}
            table += (FAILED_SHARE,)
    return {
        name: {**values[name], "unit": unit}
        for name, unit, *_ in table if name in values
    }


def result_line(record: dict, traced: bool) -> str | None:
    """The driver's result object, or None when a metric is missing."""
    metrics = reported(record, traced)
    metrics.pop(FAILED_SHARE[0], None)  # the driver reads failed/attempted
    if len(metrics) != len(PER_LAYER if traced else END_TO_END):
        return None
    gate = record["gate"]
    return json.dumps({
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    })


def print_record(name: str, record: dict, traced: bool) -> None:
    gate = record["gate"]
    kind = "traced" if traced else "untraced"
    print(
        f"== {name} [{kind}] {record.get('config', '?')}: "
        f"failed {gate['failed']} of {gate['attempted']}"
    )
    for failure in gate["failures"]:
        print(f"   FAILED: {failure}")
    speed = record.get("host_speed")
    if speed:
        print(
            f"   host speed {speed['value']:.3f} x nominal "
            f"[min {speed['min']:.3f}, max {speed['max']:.3f}]: timings "
            f"below are wall time scaled to nominal speed"
        )
    for metric, entry in reported(record, traced).items():
        line = f"   {metric:<28} {entry['value']:>16.6g} {entry['unit']}"
        if entry.get("n", 1) > 1:
            line += (
                f"   [min {entry['min']:.6g}, max {entry['max']:.6g}, "
                f"n={entry['n']}]"
            )
        print(line)
    sys.stdout.flush()


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(args, wall_s: float) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "quick": args.quick,
        "traced": bool(args.trace),
        "wall_s": wall_s,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(BY_NAME),
        help="run this workload in this process (default: all, each in "
             "its own child process)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="fault-pattern seed of the lossy workload's untimed warm-up; "
             "timed inputs are deterministic (default %(default)s)",
    )
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS,
        help=f"timed repetitions, at least {MIN_REPS} (default %(default)s)",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="keep repeating past --reps until this much time has been "
             "spent on the pass (the driver's run length)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer pass under cProfile: instead of the untraced pass "
             "with --workload, after it without",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one repetition, no warm-up: checks goldens, times nothing "
             "worth comparing",
    )
    parser.add_argument("--json", metavar="OUT", help="write the results here")
    args = parser.parse_args(argv)
    if args.seconds is not None:
        # The driver sets run length by time; the floor still holds.
        args.reps = MIN_REPS
    elif args.reps < MIN_REPS and not args.quick:
        parser.error(f"--reps must be at least {MIN_REPS}")
    return args


def document_entry(record: dict, traced: bool) -> dict:
    """One pass's share of a workload's entry in the ``--json`` file."""
    entry = {key: record.get(key) for key in ("config", "params", "tiles")}
    if traced:
        entry["per_layer"] = reported(record, traced)
        entry["trace_gate"] = record["gate"]
    else:
        entry["end_to_end"] = reported(record, traced)
        entry["phases"] = record.get("phases", {})
        entry["host_speed"] = record.get("host_speed")
        entry["gate"] = record["gate"]
    return entry


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if args.workload:
        passes = [(args.workload, bool(args.trace))]
        run_pass = measure
    else:
        passes = [
            (workload.name, traced)
            for traced in (False, True)[:1 + args.trace]
            for workload in WORKLOADS
        ]
        run_pass = measure_isolated
    results = {}
    failed = 0
    for name, traced in passes:
        record = run_pass(
            name, traced, args.seed, args.reps, args.seconds, args.quick
        )
        print_record(name, record, traced)
        line = result_line(record, traced)
        # A pass that measured nothing failed, whatever its gate counted.
        failed += record["gate"]["failed"] + (line is None)
        results.setdefault(name, {}).update(document_entry(record, traced))
    wall_s = time.perf_counter() - started
    if args.json:
        document = {
            "schema": SCHEMA,
            "manifest": manifest(args, wall_s),
            "workloads": results,
        }
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(passes)} passes in {wall_s:.1f} s, {failed} failed")
    if args.workload and line is not None:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
