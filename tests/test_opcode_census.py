"""The opcode census (benchmarks/opcode_census.py) on a tiny Jacobi."""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.system.config import SystemConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from opcode_census import ROOT, by_function, census, risen, rows_of  # noqa: E402


def test_counts_repeat_and_the_rows_sum_to_the_total():
    call = partial(run_jacobi, SystemConfig(n_workers=2),
                   JacobiParams(n=10, iterations=1, warmup=0))
    call()  # the warm-up the census takes first
    first, second = (by_function(census(call), ROOT) for __ in range(2))
    total = sum(first.values())
    assert total == sum(second.values()) > 0
    assert "src/repro/pe/processor.py:ProcessorNode._execute" in first
    for sides in ([first], [first, second]):
        rows = rows_of(sides, top=5)
        assert len(rows) == 6 and rows[-1][0].endswith("other functions)")
        for side in range(len(sides)):
            assert sum(counts[side] for __, counts in rows) == total


def test_fail_above_names_only_the_workloads_that_rose_past_it():
    totals = {"flat": [1000, 1000], "fell": [1000, 900],
              "within": [1000, 1020], "rose": [1000, 1021]}
    assert risen(totals, 2) == ["rose"]
