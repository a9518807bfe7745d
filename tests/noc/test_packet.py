"""Bit-accurate flit codec (Fig. 5)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PacketFormatError
from repro.noc.packet import FlitCodec, PacketType, SubType


def test_packet_types_fit_three_bits():
    assert all(0 <= int(t) < 8 for t in PacketType)
    # The seven types of Section II-D plus MULTICAST (the previously
    # reserved eighth 3-bit code, claimed by the hardware collectives).
    assert len(PacketType) == 8
    assert int(PacketType.MULTICAST) == 7


def test_subtypes_fit_two_bits():
    assert all(0 <= int(s) < 4 for s in SubType)


def test_message_subtype_aliases():
    # The 2-bit field is overloaded per TYPE, like the paper.
    assert SubType.MSG_DATA == SubType.DATA
    assert SubType.MSG_REQUEST == SubType.ADDR


def test_layout_widths_for_4x4():
    codec = FlitCodec(4, 4)
    fields = codec.fields
    assert fields["valid"].width == 1
    assert fields["x"].width == 2
    assert fields["y"].width == 2
    assert fields["type"].width == 3
    assert fields["subtype"].width == 2
    assert fields["seq"].width == 4
    assert fields["burst"].width == 2
    assert fields["src"].width == 4
    assert fields["data"].width == 32
    assert codec.header_bits == 20


def test_valid_bit_is_msb_side():
    codec = FlitCodec(4, 4, flit_width=64)
    word = codec.encode(0, 0, 0, 0, 0, 0, 0, 0)
    assert word == 1 << 63  # only the valid bit set


def test_fields_do_not_overlap():
    codec = FlitCodec(4, 4)
    seen = 0
    for spec in codec.fields.values():
        mask = spec.mask << spec.offset
        assert seen & mask == 0
        seen |= mask


def test_encode_round_trip():
    codec = FlitCodec(4, 4)
    word = codec.encode(
        dst_x=2, dst_y=3, ptype=int(PacketType.BLOCK_READ),
        subtype=int(SubType.DATA), seq=9, burst=3, src=7,
        data=0xDEADBEEF,
    )
    decoded = codec.decode(word)
    assert decoded["valid"] == 1
    assert decoded["x"] == 2
    assert decoded["y"] == 3
    assert decoded["type"] == int(PacketType.BLOCK_READ)
    assert decoded["subtype"] == int(SubType.DATA)
    assert decoded["seq"] == 9
    assert decoded["burst"] == 3
    assert decoded["src"] == 7
    assert decoded["data"] == 0xDEADBEEF


@given(
    x=st.integers(0, 3),
    y=st.integers(0, 3),
    ptype=st.integers(0, 6),
    subtype=st.integers(0, 3),
    seq=st.integers(0, 15),
    burst=st.integers(0, 3),
    src=st.integers(0, 15),
    data=st.integers(0, 0xFFFF_FFFF),
)
def test_round_trip_property(x, y, ptype, subtype, seq, burst, src, data):
    codec = FlitCodec(4, 4)
    word = codec.encode(x, y, ptype, subtype, seq, burst, src, data)
    decoded = codec.decode(word)
    assert (decoded["x"], decoded["y"]) == (x, y)
    assert decoded["type"] == ptype
    assert decoded["subtype"] == subtype
    assert decoded["seq"] == seq
    assert decoded["burst"] == burst
    assert decoded["src"] == src
    assert decoded["data"] == data


def test_field_overflow_rejected():
    codec = FlitCodec(4, 4)
    with pytest.raises(PacketFormatError):
        codec.encode(4, 0, 0, 0, 0, 0, 0, 0)  # x needs 3 bits
    with pytest.raises(PacketFormatError):
        codec.encode(0, 0, 0, 0, 16, 0, 0, 0)  # seq is 4 bits
    with pytest.raises(PacketFormatError):
        codec.encode(0, 0, 0, 0, 0, 0, 0, 1 << 32)  # data is 32 bits


def test_decode_rejects_oversized_word():
    codec = FlitCodec(4, 4)
    with pytest.raises(PacketFormatError):
        codec.decode(1 << 64)


def test_scaled_grid_widens_coordinates():
    codec = FlitCodec(8, 8, src_bits=6)
    assert codec.fields["x"].width == 3
    assert codec.fields["y"].width == 3


def test_min_mask_bits_widens_the_header_by_whole_bytes():
    # 4x4 base layout leaves 12 spare bits; 16 nodes need 16 mask bits,
    # so the header grows to the next byte boundary (the two-flit-header
    # extension, modelled as one widened wire word).
    base = FlitCodec(4, 4)
    assert base.flit_width == 64
    assert base.mask_bits == 12
    wide = FlitCodec(4, 4, min_mask_bits=16)
    assert wide.flit_width == 72
    assert wide.mask_bits >= 16
    # A 16-node all-but-source mask round-trips losslessly.
    mask = 0xFFFE
    word = wide.encode(
        0, 0, int(PacketType.MULTICAST), int(SubType.MSG_DATA),
        seq=5, burst=1, src=0, data=0xCAFEBABE, mask=mask,
    )
    decoded = wide.decode(word)
    assert decoded["mask"] == mask
    assert decoded["data"] == 0xCAFEBABE
    assert decoded["seq"] == 5
    # The base format still refuses what it cannot carry.
    with pytest.raises(PacketFormatError):
        base.encode(
            0, 0, int(PacketType.MULTICAST), int(SubType.MSG_DATA),
            seq=0, burst=1, src=0, data=0, mask=mask,
        )


def test_min_mask_bits_is_a_no_op_when_spare_bits_suffice():
    codec = FlitCodec(3, 3, min_mask_bits=9)  # 9 nodes fit the 12 spare
    assert codec.flit_width == 64
    assert codec.mask_bits == 12


def test_src_field_must_name_all_nodes():
    with pytest.raises(PacketFormatError):
        FlitCodec(8, 8)  # 64 nodes need more than 4 src bits


def test_layout_must_fit_flit_width():
    with pytest.raises(PacketFormatError):
        FlitCodec(4, 4, flit_width=32)  # 52 bits cannot fit


def test_header_plus_payload_spans_layout():
    codec = FlitCodec(4, 4)
    assert codec.header_bits + codec.payload_bits == 52
    assert codec.max_seq == 15
    assert codec.max_burst == 3
