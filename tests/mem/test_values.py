"""Word/number conversions — must be bit-exact."""

from __future__ import annotations

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.values import float_to_words, words_to_float


def test_double_round_trip_simple():
    low, high = float_to_words(1.5)
    assert words_to_float(low, high) == 1.5


def test_double_little_endian_layout():
    low, high = float_to_words(1.0)
    # 1.0 = 0x3FF0000000000000: all-zero low word, exponent in high word.
    assert low == 0
    assert high == 0x3FF00000


@given(st.floats(allow_nan=False))
def test_double_round_trip_property(value):
    low, high = float_to_words(value)
    assert 0 <= low <= 0xFFFF_FFFF
    assert 0 <= high <= 0xFFFF_FFFF
    result = words_to_float(low, high)
    assert struct.pack("<d", result) == struct.pack("<d", value)


def test_nan_payload_preserved():
    nan_bits = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
    low, high = float_to_words(nan_bits)
    result = words_to_float(low, high)
    assert math.isnan(result)
    assert struct.pack("<d", result) == struct.pack("<d", nan_bits)
