"""Memory map: shared + private segmentation and ownership."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, MemoryAccessError
from repro.mem.memory_map import MemoryMap


def test_layout_is_contiguous():
    memory_map = MemoryMap(3, shared_size=0x1000, private_size=0x800)
    assert memory_map.shared.base == 0
    assert memory_map.privates[0].base == 0x1000
    assert memory_map.privates[1].base == 0x1800
    assert memory_map.privates[2].base == 0x2000
    assert memory_map.total_size == 0x2800


def test_segment_of_resolves_every_region():
    memory_map = MemoryMap(2, shared_size=0x1000, private_size=0x1000)
    assert memory_map.segment_of(0).name == "shared"
    assert memory_map.segment_of(0xFFF).name == "shared"
    assert memory_map.segment_of(0x1000).owner == 0
    assert memory_map.segment_of(0x2000).owner == 1


def test_segment_of_out_of_range():
    memory_map = MemoryMap(1, shared_size=0x100, private_size=0x100)
    with pytest.raises(MemoryAccessError):
        memory_map.segment_of(0x200)


@pytest.mark.parametrize("addr", [-4, -8])
def test_a_negative_address_is_below_mapped_memory(addr):
    """Not the private segment a negative rank index would name."""
    memory_map = MemoryMap(4, shared_size=0x100, private_size=0x100)
    with pytest.raises(MemoryAccessError, match=f"address {addr:#x} below"):
        memory_map.check_access(0, addr)
    with pytest.raises(MemoryAccessError, match="below mapped memory"):
        memory_map.segment_of(addr)


def test_is_shared():
    memory_map = MemoryMap(1, shared_size=0x100, private_size=0x100)
    assert memory_map.is_shared(0x50)
    assert not memory_map.is_shared(0x150)


def test_private_base_validation():
    memory_map = MemoryMap(2)
    with pytest.raises(MemoryAccessError):
        memory_map.private_base(2)


def test_check_access_allows_owner_and_shared():
    memory_map = MemoryMap(2, shared_size=0x100, private_size=0x100)
    memory_map.check_access(0, 0x10)           # shared: anyone
    memory_map.check_access(1, 0x10)
    memory_map.check_access(0, 0x100)          # rank 0's private
    memory_map.check_access(1, 0x200)          # rank 1's private


def test_check_access_rejects_foreign_private():
    memory_map = MemoryMap(2, shared_size=0x100, private_size=0x100)
    with pytest.raises(MemoryAccessError):
        memory_map.check_access(1, 0x100)  # rank 0's segment


def test_check_access_rejects_segment_straddle():
    memory_map = MemoryMap(2, shared_size=0x100, private_size=0x100)
    with pytest.raises(MemoryAccessError):
        memory_map.check_access(0, 0xFC, n_bytes=8)  # crosses into private


def test_sizes_must_be_line_multiples():
    with pytest.raises(ConfigError):
        MemoryMap(1, shared_size=100)
    with pytest.raises(ConfigError):
        MemoryMap(1, private_size=8)


def test_needs_at_least_one_worker():
    with pytest.raises(ConfigError):
        MemoryMap(0)
