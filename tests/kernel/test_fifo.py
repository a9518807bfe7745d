"""Hardware FIFO model semantics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, FifoEmptyError, FifoFullError
from repro.kernel.fifo import Fifo


def test_fifo_ordering():
    fifo: Fifo[int] = Fifo(4)
    for value in (1, 2, 3):
        fifo.push(value)
    assert [fifo.pop() for __ in range(3)] == [1, 2, 3]


def test_bounded_capacity_enforced():
    fifo: Fifo[int] = Fifo(2)
    fifo.push(1)
    fifo.push(2)
    assert fifo.full
    with pytest.raises(FifoFullError):
        fifo.push(3)
    assert fifo.full_rejections == 1


def test_pop_empty_raises():
    fifo: Fifo[int] = Fifo(2)
    with pytest.raises(FifoEmptyError):
        fifo.pop()


def test_peek_does_not_consume():
    fifo: Fifo[int] = Fifo(2)
    fifo.push(7)
    assert fifo.peek() == 7
    assert len(fifo) == 1
    assert fifo.pop() == 7


def test_peek_empty_raises():
    with pytest.raises(FifoEmptyError):
        Fifo(1).peek()


def test_unbounded_fifo_never_full():
    fifo: Fifo[int] = Fifo(None)
    for value in range(10_000):
        fifo.push(value)
    assert not fifo.full
    assert fifo.free_slots is None


def test_free_slots_tracking():
    fifo: Fifo[int] = Fifo(3)
    assert fifo.free_slots == 3
    fifo.push(1)
    assert fifo.free_slots == 2


def test_bool_and_empty():
    fifo: Fifo[int] = Fifo(2)
    assert not fifo
    assert fifo.empty
    fifo.push(1)
    assert fifo
    assert not fifo.empty


def test_iteration_preserves_order():
    fifo: Fifo[int] = Fifo(None)
    for value in (3, 1, 2):
        fifo.push(value)
    assert list(fifo) == [3, 1, 2]


def test_clear_empties_but_keeps_stats():
    fifo: Fifo[int] = Fifo(2)
    fifo.push(1)
    fifo.push(2)
    with pytest.raises(FifoFullError):
        fifo.push(3)
    fifo.clear()
    assert fifo.empty
    assert fifo.full_rejections == 1


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigError, match="mpmmu.data: capacity"):
        Fifo(0, name="mpmmu.data")
