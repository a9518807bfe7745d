"""benchmarks/paired.py over canned ``run.py`` result lines."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import paired  # noqa: E402


def result_line(speed, total=0.5, setup=0.01, rss=40.0, cycles=5007,
                correct=True):
    values = {
        "sim_cycles_per_s": speed, "total_s": total, "setup_s": setup,
        "peak_rss_mb": rss, "sim_cycles": cycles, "cycles_per_op": 1657.0,
    }
    return json.dumps({
        "correct": correct, "attempted": 8, "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "?"}
                    for name, value in values.items()},
    })


def canned(parent_lines, change_lines, calls):
    """A ``run`` stand-in serving each side's lines in order."""
    queues = {"P": list(parent_lines), "C": list(change_lines)}

    def run(checkout, workload, seconds):
        calls.append((checkout, workload, seconds))
        return queues[checkout].pop(0)

    return run


def sections(text):
    """``{metric name: its block of the report}``."""
    blocks = {}
    for line in text.splitlines():
        if not line.startswith(" "):
            name = line.split(" ", 1)[0]
            blocks[name] = ""
        blocks[name] += line + "\n"
    return blocks


def test_ten_pairs_alternate_and_a_clear_win_is_a_gain(capsys):
    parent = [result_line(10_000 + 30 * i, setup=0.0100 + 0.0001 * i)
              for i in range(10)]
    # Faster by 30 %; set-up noisier than its shift; memory better in 8 of 10.
    change = [
        result_line(13_000 + 30 * i, setup=0.0104 - 0.0002 * (i % 3),
                    rss=39.0 if i < 8 else 41.0)
        for i in range(10)
    ]
    calls = []
    status = paired.main(
        ["P", "C", "--workload", "allreduce_ring_8w", "--seconds", "3"],
        run=canned(parent, change, calls),
    )
    assert status == 0
    assert [side for side, *_ in calls[:6]] == ["P", "C", "C", "P", "P", "C"]
    assert set(calls) == {("P", "allreduce_ring_8w", 3.0),
                          ("C", "allreduce_ring_8w", 3.0)}
    assert len(calls) == 20
    blocks = sections(capsys.readouterr().out)
    speed = blocks["sim_cycles_per_s"]
    assert "change/parent by pair: 1.300 1.299" in speed
    assert "parent median 10135 [q1 10067.5, q3 10202.5]" in speed
    assert "medians 1.296x (base parent), change ahead in 10/10 pairs -> gain" in speed
    assert "-> unresolved" in blocks["setup_s"]
    assert "change ahead in 8/10 pairs -> unresolved" in blocks["peak_rss_mb"]
    assert "exact: equal [5007]" in blocks["sim_cycles"]


def test_a_slower_change_is_worse_and_ties_count_for_neither():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0]
    assert paired.verdict(parent, [90.0] * 5, higher=True) == (0, "worse")
    assert paired.verdict(parent, [90.0] * 5, higher=False) == (5, "gain")
    # Four wins and a tie are not nine tenths of five pairs.
    assert paired.verdict(parent, [120.0, 121.0, 122.0, 123.0, 104.0],
                          higher=True) == (4, "unresolved")
    # Ahead in every pair, but by less than the parent's own quartiles.
    assert paired.verdict(parent, [value + 1 for value in parent],
                          higher=True) == (5, "unresolved")


def test_a_moved_exact_metric_or_a_failed_gate_exits_1(capsys):
    lines = [result_line(10_000)] * 2
    moved = [result_line(10_000), result_line(10_000, cycles=5008)]
    args = ["P", "C", "--workload", "allreduce_ring_8w", "--pairs", "2"]
    assert paired.main(args, run=canned(lines, moved, [])) == 1
    assert "exact: DIFFERS [5007, 5008]" in capsys.readouterr().out
    failed = [result_line(10_000, correct=False)]
    assert paired.main(args, run=canned(lines, failed, [])) == 1
    assert "C failed its gate" in capsys.readouterr().out
    assert paired.main(args, run=canned(["Traceback ..."], lines, [])) == 1


def test_several_workloads_get_a_block_each_and_a_closing_table(capsys):
    # Two pairs of each of two workloads: the first 20 % faster, the
    # second with a moved exact metric, which makes the whole command 1.
    parent = [result_line(10_000), result_line(10_100),
              result_line(500.0), result_line(505.0)]
    change = [result_line(12_000), result_line(12_120),
              result_line(500.0), result_line(505.0, cycles=5008)]
    calls = []
    status = paired.main(
        ["P", "C", "--workload", "jacobi_wt_8w", "allreduce_ring_8w",
         "--pairs", "2", "--seconds", "1"],
        run=canned(parent, change, calls),
    )
    assert status == 1
    assert [workload for __, workload, __ in calls] == (
        ["jacobi_wt_8w"] * 4 + ["allreduce_ring_8w"] * 4
    )
    out = capsys.readouterr().out
    per_workload, table = out.split("== all workloads\n")
    assert per_workload.index("== jacobi_wt_8w") < per_workload.index(
        "== allreduce_ring_8w")
    assert per_workload.count("change/parent by pair:") == 2 * 4
    blocks = sections(table)
    speed = blocks["sim_cycles_per_s"].splitlines()
    assert speed[1].split() == ["workload", "parent", "change", "ratio", "wins",
                                "verdict"]
    assert speed[2].split() == ["jacobi_wt_8w", "10050", "12060", "1.200x", "2/2",
                                "gain"]
    assert speed[3].split() == ["allreduce_ring_8w", "502.5", "502.5", "1.000x",
                                "0/2", "unresolved"]
    cycles = blocks["sim_cycles"].splitlines()
    assert cycles[2].split()[-2:] == ["-", "equal"]
    assert cycles[3].split()[-2:] == ["-", "DIFFERS"]


def test_workload_all_is_every_workload_of_the_benchmark(capsys):
    calls = []
    lines = [result_line(10_000)] * 16
    assert paired.main(["P", "C", "--workload", "all", "--pairs", "2"],
                       run=canned(lines, list(lines), calls)) == 0
    assert [workload for __, workload, __ in calls[::4]] == [
        workload["name"] for workload in paired.SPEC["workloads"]
    ]
    assert len(calls) == 32
    assert capsys.readouterr().out.count("unresolved") >= 8
