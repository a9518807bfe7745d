"""Compare two result files of ``run.py --json``, metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, the ratio B/A
(base A), the metric's bound and a verdict for B against A:

``worse``       B's median is worse than A's by more than the bound;
``better``      it is better by more than the bound;
``unresolved``  neither, and either side's own quartile spread is wider
                than the bound: the runs cannot tell;
``same``        neither, and both sides are steadier than the bound.

A change smaller than the bound is never called: two runs of one commit
differ by up to 6 % on the reference host, more than the repetitions of
either run do among themselves.  Prove a smaller gain with paired runs.

Exact metrics (bound 0) compare by equality.  With ``--trace`` results on
both sides, every per-layer count that must repeat exactly is compared
too.  Exit status is 1 if any row is ``worse`` or ``unresolved`` or any
exact count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, FAILED_SHARE, PER_LAYER

#: Per-layer units whose values are exact on a deterministic simulator.
EXACT_UNITS = ("count", "cycles", "fraction")
#: ...except host-time shares, which are timings, and the one layer
#: whose call count includes the interpreter's own (gc, import) calls.
INEXACT = ("host_share", "host_other.host_calls")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """B against A for one metric (see the module docstring)."""
    one, two = a["value"], b["value"]
    if bound == 0:
        if one == two:
            return "same"
        return "worse" if (two > one) == (better == "lower") else "better"
    change = (two - one) / one if better == "lower" else (one - two) / one
    if abs(change) > bound:
        return "worse" if change > 0 else "better"
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    return "unresolved" if spread > bound else "same"


def compare_end_to_end(a: dict, b: dict) -> list[tuple]:
    """Rows ``(workload, metric, unit, A, B, ratio, bound, verdict)``.

    A ``--quick`` side has one sample per timing, so timed rows get no
    verdict (``-``); exact rows are judged as always.
    """
    quick = any(side["manifest"]["quick"] for side in (a, b))
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a = a["workloads"][workload].get("end_to_end", {})
        side_b = b["workloads"][workload].get("end_to_end", {})
        for name, unit, better, bound in END_TO_END + (FAILED_SHARE,):
            if name not in side_a or name not in side_b:
                rows.append((workload, name, unit, None, None, None, bound,
                             "unresolved"))
                continue
            one, two = side_a[name], side_b[name]
            rows.append((
                workload, name, unit, one["value"], two["value"],
                two["value"] / one["value"] if one["value"] else None,
                bound,
                "-" if quick and bound else verdict(one, two, better, bound),
            ))
    return rows


def exact_differences(a: dict, b: dict) -> list[tuple]:
    """``(workload, metric, A, B)`` for every per-layer count that
    differs; empty unless both files hold a traced pass."""
    exact = [
        name for name, unit, _ in PER_LAYER
        if unit in EXACT_UNITS and not name.endswith(INEXACT)
    ]
    differences = []
    for workload, entry in a["workloads"].items():
        side_a = entry.get("per_layer", {})
        side_b = b["workloads"].get(workload, {}).get("per_layer", {})
        for name in exact:
            if name in side_a and name in side_b:
                one, two = side_a[name]["value"], side_b[name]["value"]
                if one != two:
                    differences.append((workload, name, one, two))
    return differences


def _cell(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(rows: list[tuple], differences: list[tuple]) -> str:
    lines = [
        f"{'workload':<26}{'metric':<18}{'A':>12}{'B':>12}"
        f"{'B/A':>9}{'bound':>7}  verdict"
    ]
    for workload, name, unit, one, two, ratio, bound, word in rows:
        lines.append(
            f"{workload:<26}{name:<18}{_cell(one):>12}{_cell(two):>12}"
            f"{_cell(ratio):>9}{bound:>7.2f}  {word} ({unit})"
        )
    for workload, name, one, two in differences:
        lines.append(f"EXACT COUNT DIFFERS {workload} {name}: A={one} B={two}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare_end_to_end(a, b)
    differences = exact_differences(a, b)
    print(render(rows, differences))
    bad = [row for row in rows if row[-1] in ("worse", "unresolved")]
    print(
        f"{len(rows)} rows (ratio base: A = {argv[0]}): {len(bad)} worse or "
        f"unresolved, {len(differences)} exact counts differ"
    )
    return 1 if bad or differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
