"""``Flit``'s written constructor against the dataclass it still is."""

from __future__ import annotations

import dataclasses

from repro.noc.flit import Flit
from repro.noc.packet import PacketType
from repro.noc.switch import _copy_flit

FIELDS = ("dst", "src", "ptype", "subtype", "seq", "burst", "data", "dst_mask",
          "crc", "uid", "injected_at", "hops", "deflections")


def test_fields_slots_and_defaults_are_the_generated_ones():
    assert tuple(field.name for field in dataclasses.fields(Flit)) == FIELDS
    assert Flit.__slots__ == FIELDS
    flit = Flit(3, 1, PacketType.LOCK)
    assert not hasattr(flit, "__dict__")
    assert dataclasses.astuple(flit) == (
        3, 1, PacketType.LOCK, 0, 0, 1, 0, 0, -1, flit.uid, -1, 0, 0
    )


def test_positional_and_keyword_construction_agree():
    values = (5, 2, PacketType.MULTICAST, 1, 9, 4, 0xBEEF, 0b1010, 0x5A, 77, 12, 3, 1)
    by_position = Flit(*values)
    by_keyword = Flit(**dict(zip(FIELDS, values)))
    assert by_position == by_keyword
    assert dataclasses.astuple(by_position) == values
    assert repr(by_position) == "<Flit#77 MULTICAST/1 2->5 seq=9 data=0xbeef>"


def test_uids_increase_across_constructions_and_copies():
    first = Flit(1, 0, PacketType.MESSAGE)
    copy = _copy_flit(first, dst=2, dst_mask=0)
    third = Flit(dst=1, src=0, ptype=PacketType.MESSAGE)
    assert first.uid < copy.uid < third.uid
    assert Flit(1, 0, PacketType.MESSAGE, uid=5).uid == 5


def test_replace_copies_every_field_it_is_not_given():
    flit = Flit(4, 1, PacketType.BLOCK_READ, seq=2, data=8, injected_at=30, hops=2)
    moved = dataclasses.replace(flit, dst=6, hops=3)
    assert (moved.dst, moved.hops) == (6, 3)
    assert dataclasses.replace(moved, dst=4, hops=2) == flit
