"""The opcode census (benchmarks/opcode_census.py) on a tiny Jacobi."""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.system.config import SystemConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from opcode_census import (  # noqa: E402
    ROOT, aligned, by_function, census, dict_holders, real_dict, risen, rows_of,
)


def test_counts_repeat_and_the_rows_sum_to_the_total():
    call = partial(run_jacobi, SystemConfig(n_workers=2),
                   JacobiParams(n=10, iterations=1, warmup=0))
    call()  # the warm-up the census takes first
    first, second = (by_function(census(call)[0], ROOT) for __ in range(2))
    total = sum(first.values())
    assert total == sum(second.values()) > 0
    assert "src/repro/pe/processor.py:ProcessorNode._execute" in first
    for sides in ([first], [first, second]):
        rows = rows_of(sides, top=5)
        assert len(rows) == 6 and rows[-1][0].endswith("other functions)")
        for side in range(len(sides)):
            assert sum(counts[side] for __, counts in rows) == total


def test_frames_count_every_call_and_generator_resumption():
    def generator():
        yield 1
        yield 2

    def call():
        for __ in range(3):
            list(generator())

    opcodes, frames, __ = census(call)
    entered = by_function(frames, ROOT)
    name = "tests/test_opcode_census.py:" + generator.__qualname__
    # Each list() enters the generator three times: two yields, one return.
    assert entered[name] == 9
    assert entered["tests/test_opcode_census.py:" + call.__qualname__] == 1
    assert set(entered) <= set(by_function(opcodes, ROOT))


def test_frame_rows_line_up_with_the_opcode_rows_and_sum_to_the_total():
    opcodes = [{"a": 50, "b": 40, "c": 3, "d": 1}, {"a": 10, "b": 40, "c": 3}]
    frames = [{"a": 5, "b": 7, "c": 2, "d": 1}, {"a": 1, "b": 6, "c": 4}]
    rows = rows_of(opcodes, top=2)
    assert [name for name, __ in rows] == ["a", "d", "(2 other functions)"]
    assert aligned(rows, 2, frames) == [[5, 1], [1, 0], [9, 10]]


def test_fail_above_names_only_the_workloads_that_rose_past_it():
    totals = {"flat": [1000, 1000], "fell": [1000, 900],
              "within": [1000, 1020], "rose": [1000, 1021]}
    assert risen(totals, 2) == ["rose"]
    dicts = {"flat": [0, 0], "fell": [8, 0], "within": [3, 4]}
    assert risen(totals, 2, dicts) == ["within", "rose"]
    frames = {"flat": [100, 103], "fell": [100, 102]}
    assert risen(totals, 2, frames=frames) == ["flat", "rose"]


class _Wide:
    """A ``src/repro``-like class with ``width`` attributes."""

    __module__ = "repro.layout_probe"

    def __init__(self, width: int) -> None:
        for index in range(width):
            setattr(self, f"a{index}", [index])


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="inline attribute values are CPython 3.11's")
def test_real_dict_sees_a_wide_or_read_instance_without_reading_it():
    narrow, wide, read = _Wide(29), _Wide(30), _Wide(3)
    assert real_dict(narrow) is None
    assert real_dict(wide) is not None and real_dict(read) is None
    vars(read)
    assert real_dict(read) == {"a0": [0], "a1": [1], "a2": [2]}
    assert dict_holders([narrow, wide, read, 7]) == {
        "_Wide (3 attributes)": 1, "_Wide (30 attributes)": 1}
