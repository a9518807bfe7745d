"""Lock table semantics."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.mpmmu.lock_table import LockTable


def test_acquire_free_lock():
    table = LockTable()
    assert table.acquire(0x40, owner=1)
    assert table.held_count == 1


def test_contended_lock_denied():
    table = LockTable()
    table.acquire(0x40, owner=1)
    assert not table.acquire(0x40, owner=2)
    assert table.stats["contended_requests"] == 1


def test_release_frees_lock():
    table = LockTable()
    table.acquire(0x40, owner=1)
    table.release(0x40, owner=1)
    assert table.held_count == 0
    assert table.acquire(0x40, owner=2)


def test_release_by_non_holder_rejected():
    table = LockTable()
    table.acquire(0x40, owner=1)
    with pytest.raises(ProtocolError):
        table.release(0x40, owner=2)


def test_release_of_free_lock_rejected():
    table = LockTable()
    with pytest.raises(ProtocolError):
        table.release(0x40, owner=1)


def test_recursive_lock_rejected():
    table = LockTable()
    table.acquire(0x40, owner=1)
    with pytest.raises(ProtocolError):
        table.acquire(0x40, owner=1)


def test_independent_addresses():
    table = LockTable()
    assert table.acquire(0x40, owner=1)
    assert table.acquire(0x80, owner=2)
    assert table.held_count == 2


def test_capacity_limit():
    table = LockTable(capacity=1)
    assert table.acquire(0x40, owner=1)
    assert not table.acquire(0x80, owner=2)
    assert table.stats["table_full_rejections"] == 1


def test_statistics():
    table = LockTable()
    table.acquire(0x40, owner=1)
    table.release(0x40, owner=1)
    assert table.stats["acquisitions"] == 1
    assert table.stats["releases"] == 1
