"""Alternating parent/change pairs of benchmark workloads, and the verdict.

    python3 benchmarks/paired.py PARENT CHANGE --workload W [W ...] [--pairs 10] [--seconds S]

Each checkout runs its own ``benchmarks/perf/run.py --workload W --trace 0``
(``S`` defaults to BENCHMARK.json's run length), one process at a time, the
order flipping every pair (P C / C P / ...).  ``--workload all`` is every
workload of BENCHMARK.json; several workloads get one block each and a
closing table, one row per workload.  Per end-to-end metric: each
pair's ratio, both medians with quartiles, the pairs the change won, and
``gain`` (``worse``) when it wins (loses) at least nine tenths of the pairs,
ties counting for neither, with the medians further apart than the parent's
own quartiles; else ``unresolved``.  Exits 1 when a run fails its gate or an
exact metric (bound 0) differs.  Run it on a quiet host, never a CI runner."""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads(Path(__file__).parents[1].joinpath("BENCHMARK.json").read_text())


def run_once(checkout: str, workload: str, seconds: float) -> str:
    """The result line (last line of stdout) of one ``run.py`` process."""
    command = [sys.executable, f"{checkout}/benchmarks/perf/run.py", "--workload",
               workload, "--trace", "0", "--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    return done.stdout.strip().rsplit("\n", 1)[-1]


def verdict(parent: list, change: list, higher: bool) -> tuple[int, str]:
    """``(pairs the change won, gain|worse|unresolved)`` for one metric."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, __, q3 = quantiles(parent, n=4, method="inclusive")
    shift = sign * (median(change) - median(parent))
    if abs(shift) > q3 - q1 and (wins if shift > 0 else losses) >= 0.9 * len(parent):
        return wins, "gain" if shift > 0 else "worse"
    return wins, "unresolved"


def report(samples: dict[str, tuple[list, list]]) -> dict[str, tuple]:
    """Print every metric's pairs and verdict.  Returns, per metric, its
    row of the closing table: ``(parent median, change median, wins,
    pairs, verdict)``, the verdict of an exact metric ``equal|DIFFERS``."""
    rows = {}
    for metric in SPEC["end_to_end"]:
        parent, change = samples[metric["name"]]
        print(f"{metric['name']} [{metric['unit']}, {metric['better']} is better]")
        if metric["bound"] == 0:
            values = sorted(set(parent + change))
            word = "DIFFERS" if values[1:] else "equal"
            print(f"  exact: {word} {values}")
            wins = None  # nothing to win: equal or not
        else:
            print("  change/parent by pair:",
                  *(f"{c / p:.3f}" for p, c in zip(parent, change)))
            for side, values in (("parent", parent), ("change", change)):
                q1, __, q3 = quantiles(values, n=4, method="inclusive")
                print(f"  {side} median {median(values):.6g} "
                      f"[q1 {q1:.6g}, q3 {q3:.6g}]")
            wins, word = verdict(parent, change, metric["better"] == "higher")
            print(f"  medians {median(change) / median(parent):.3f}x (base "
                  f"parent), change ahead in {wins}/{len(parent)} pairs -> {word}")
        rows[metric["name"]] = (
            median(parent), median(change), wins, len(parent), word
        )
    return rows


def closing_table(rows: dict[str, dict[str, tuple]]) -> None:
    """One table per metric, one row per workload (``rows[workload]`` is
    that workload's :func:`report`)."""
    for metric in SPEC["end_to_end"]:
        print(f"{metric['name']} [{metric['unit']}, {metric['better']} is better]")
        print(f"  {'workload':<26}{'parent':>12}{'change':>12}{'ratio':>9}"
              f"{'wins':>7}  verdict")
        for workload, by_metric in rows.items():
            parent, change, wins, pairs, word = by_metric[metric["name"]]
            won = "-" if wins is None else f"{wins}/{pairs}"
            print(f"  {workload:<26}{parent:>12.6g}{change:>12.6g}"
                  f"{change / parent:>8.3f}x{won:>7}  {word}")


def measure(args, workload: str, run) -> dict[str, tuple[list, list]] | None:
    """Both sides' values of every metric over the alternating pairs, or
    None (and the reason printed) if a run failed its gate."""
    samples = {metric["name"]: ([], []) for metric in SPEC["end_to_end"]}
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            checkout = args.change if side else args.parent
            line = run(checkout, workload, args.seconds)
            result = json.loads(line) if line.startswith("{") else {}
            if not result.get("correct"):
                print(f"pair {pair + 1}: {checkout} failed its gate: {line}")
                return None
            for name, series in samples.items():
                series[side].append(result["metrics"][name]["value"])
    return samples


def main(argv: list[str], run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="workload names from BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload
    if workloads == ["all"]:
        workloads = [workload["name"] for workload in SPEC["workloads"]]
    rows = {}
    failed = False
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}")
        samples = measure(args, workload, run)
        if samples is None:
            failed = True
            continue
        rows[workload] = report(samples)
        failed |= any(row[-1] == "DIFFERS" for row in rows[workload].values())
    if len(rows) > 1:
        print("== all workloads")
        closing_table(rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
