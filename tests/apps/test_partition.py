"""Row partitioning across workers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.jacobi.partition import (
    next_owner,
    partition_interior,
    prev_owner,
    split_evenly,
)
from repro.errors import ConfigError


def test_even_split():
    strips = partition_interior(10, 4)  # 8 interior rows over 4 workers
    assert [s.n_rows for s in strips] == [2, 2, 2, 2]
    assert strips[0].first_row == 1
    assert strips[3].last_row == 8


def test_uneven_split_extras_to_low_ranks():
    strips = partition_interior(9, 3)  # 7 interior rows
    assert [s.n_rows for s in strips] == [3, 2, 2]


def test_more_workers_than_rows():
    strips = partition_interior(5, 6)  # 3 interior rows, 6 workers
    assert [s.n_rows for s in strips] == [1, 1, 1, 0, 0, 0]
    assert strips[3].empty


def test_single_worker_owns_everything():
    strips = partition_interior(8, 1)
    assert strips[0].first_row == 1
    assert strips[0].n_rows == 6


def test_neighbors_simple():
    strips = partition_interior(10, 4)
    assert prev_owner(strips, 0) is None
    assert next_owner(strips, 0) == 1
    assert prev_owner(strips, 2) == 1
    assert next_owner(strips, 3) is None


def test_neighbors_with_empty_strips():
    strips = partition_interior(5, 5)  # 3 rows, ranks 3-4 empty
    assert next_owner(strips, 2) is None
    assert prev_owner(strips, 3) is None  # empty strip has no neighbors
    assert next_owner(strips, 4) is None


def test_invalid_inputs():
    with pytest.raises(ConfigError):
        partition_interior(2, 1)
    with pytest.raises(ConfigError):
        partition_interior(8, 0)


@given(count=st.integers(0, 300), workers=st.integers(1, 64),
       first=st.integers(0, 9))
def test_split_evenly_is_contiguous_balanced_and_extras_lead(
    count, workers, first
):
    strips = split_evenly(count, workers, first=first)
    assert [strip.rank for strip in strips] == list(range(workers))
    sizes = [strip.n_rows for strip in strips]
    assert sum(sizes) == count
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)  # the extras lead
    start = first
    for strip in strips:  # contiguous from ``first``, empty strips too
        assert strip.first_row == start
        start += strip.n_rows
    assert start == first + count


@given(n=st.integers(3, 70), workers=st.integers(1, 16))
def test_partition_interior_is_the_even_split_of_the_interior_rows(n, workers):
    assert partition_interior(n, workers) == split_evenly(n - 2, workers, first=1)


def test_split_evenly_of_ten_over_three():
    # The CG / matmul use: index ranges from 0.
    strips = split_evenly(10, 3)
    assert [(s.first_row, s.n_rows) for s in strips] == [(0, 4), (4, 3), (7, 3)]


@given(n=st.integers(3, 70), workers=st.integers(1, 16))
def test_partition_covers_interior_exactly(n, workers):
    strips = partition_interior(n, workers)
    rows = []
    for strip in strips:
        rows.extend(range(strip.first_row, strip.first_row + strip.n_rows))
    assert rows == list(range(1, n - 1))


@given(n=st.integers(4, 70), workers=st.integers(1, 16))
def test_neighbor_relations_are_consistent(n, workers):
    strips = partition_interior(n, workers)
    for strip in strips:
        if strip.empty:
            continue
        up = prev_owner(strips, strip.rank)
        if up is not None:
            assert strips[up].last_row == strip.first_row - 1
            assert next_owner(strips, up) == strip.rank
        down = next_owner(strips, strip.rank)
        if down is not None:
            assert strips[down].first_row == strip.last_row + 1
            assert prev_owner(strips, down) == strip.rank


@given(n=st.integers(3, 70), workers=st.integers(2, 16))
def test_balance_within_one_row(n, workers):
    strips = partition_interior(n, workers)
    sizes = [s.n_rows for s in strips]
    assert max(sizes) - min(sizes) <= 1
