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
