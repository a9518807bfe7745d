"""Per-PE local memory."""

from __future__ import annotations

from repro.mem.scratchpad import Scratchpad


def test_read_write():
    pad = Scratchpad(1024)
    pad.write_word(8, 99)
    assert pad.read_word(8) == 99


def test_block_operations():
    pad = Scratchpad(1024)
    pad.write_block(0, [1, 2, 3])
    assert pad.read_block(0, 3) == [1, 2, 3]


def test_access_latency_constant():
    assert Scratchpad.ACCESS_CYCLES == 1
