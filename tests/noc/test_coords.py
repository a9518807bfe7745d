"""Direction constants and ring arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc.coords import (
    ALL_DIRECTIONS,
    DELTA_X,
    DELTA_Y,
    EAST,
    NORTH,
    OPPOSITE,
    SOUTH,
    WEST,
)
# The ring-tie rule lives with the closed-form reference it serves.
from tests.noc.test_topology_properties import signed_wrap_delta


def test_direction_constants_are_distinct():
    assert len({NORTH, EAST, SOUTH, WEST}) == 4
    assert ALL_DIRECTIONS == (NORTH, EAST, SOUTH, WEST)


def test_opposite_is_involution():
    for direction in ALL_DIRECTIONS:
        assert OPPOSITE[OPPOSITE[direction]] == direction


def test_deltas_cancel_for_opposites():
    for direction in ALL_DIRECTIONS:
        opposite = OPPOSITE[direction]
        assert DELTA_X[direction] + DELTA_X[opposite] == 0
        assert DELTA_Y[direction] + DELTA_Y[opposite] == 0


@pytest.mark.parametrize(
    "src,dst,size,expected",
    [
        (0, 1, 4, 1),
        (1, 0, 4, -1),
        (0, 3, 4, -1),   # wrap is shorter
        (3, 0, 4, 1),
        (0, 2, 4, 2),    # tie resolves positive
        (2, 0, 4, 2),
        (0, 0, 4, 0),
        (0, 2, 5, 2),
        (0, 3, 5, -2),
    ],
)
def test_signed_wrap_delta_cases(src, dst, size, expected):
    assert signed_wrap_delta(src, dst, size) == expected


@given(st.integers(2, 16), st.data())
def test_signed_wrap_delta_reaches_destination(size, data):
    src = data.draw(st.integers(0, size - 1))
    dst = data.draw(st.integers(0, size - 1))
    delta = signed_wrap_delta(src, dst, size)
    assert (src + delta) % size == dst
    assert abs(delta) <= size // 2
