"""Alternating parent/change pairs of one benchmark workload, and the verdict.

    python3 benchmarks/paired.py PARENT CHANGE --workload W [--pairs 10] [--seconds S]

Each checkout runs its own ``benchmarks/perf/run.py --workload W --trace 0``
(``S`` defaults to BENCHMARK.json's run length), one process at a time, the
order flipping every pair (P C / C P / ...).  Per end-to-end metric: each
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


def report(samples: dict[str, tuple[list, list]]) -> bool:
    """Print every metric's pairs and verdict; False if an exact one differs."""
    exact_ok = True
    for metric in SPEC["end_to_end"]:
        parent, change = samples[metric["name"]]
        print(f"{metric['name']} [{metric['unit']}, {metric['better']} is better]")
        if metric["bound"] == 0:
            values = sorted(set(parent + change))
            exact_ok &= len(values) == 1
            print(f"  exact: {'DIFFERS' if values[1:] else 'equal'} {values}")
            continue
        print("  change/parent by pair:",
              *(f"{c / p:.3f}" for p, c in zip(parent, change)))
        for side, values in (("parent", parent), ("change", change)):
            q1, __, q3 = quantiles(values, n=4, method="inclusive")
            print(f"  {side} median {median(values):.6g} [q1 {q1:.6g}, q3 {q3:.6g}]")
        wins, word = verdict(parent, change, metric["better"] == "higher")
        print(f"  medians {median(change) / median(parent):.3f}x (base parent), "
              f"change ahead in {wins}/{len(parent)} pairs -> {word}")
    return exact_ok


def main(argv: list[str], run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    samples = {metric["name"]: ([], []) for metric in SPEC["end_to_end"]}
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            checkout = args.change if side else args.parent
            line = run(checkout, args.workload, args.seconds)
            result = json.loads(line) if line.startswith("{") else {}
            if not result.get("correct"):
                print(f"pair {pair + 1}: {checkout} failed its gate: {line}")
                return 1
            for name, series in samples.items():
                series[side].append(result["metrics"][name]["value"])
    return 0 if report(samples) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
