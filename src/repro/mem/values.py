"""Conversion between Python numbers and 32-bit memory words.

The datapath is 32 bits wide (PIF bus, flit DATA field), so IEEE-754
doubles occupy two consecutive words, little-endian (low word at the lower
address) — the layout the Xtensa's double-precision emulation library uses.
Bit-exactness matters: the Jacobi validation compares simulated results
against its pure-Python reference *bit for bit*, so any lossy conversion
here would show up as a test failure rather than silent drift.
"""

from __future__ import annotations

import struct

_PACK_DOUBLE = struct.Struct("<d")
_PACK_WORDS = struct.Struct("<II")


def float_to_words(value: float) -> tuple[int, int]:
    """Split a float64 into (low word, high word)."""
    low, high = _PACK_WORDS.unpack(_PACK_DOUBLE.pack(value))
    return low, high


def words_to_float(low: int, high: int) -> float:
    """Reassemble a float64 from (low word, high word)."""
    return _PACK_DOUBLE.unpack(_PACK_WORDS.pack(low, high))[0]


def pack_doubles(values: list[float]) -> list[int]:
    """Flatten float64s into the word stream a message carries."""
    words: list[int] = []
    for value in values:
        low, high = float_to_words(value)
        words.append(low)
        words.append(high)
    return words


def unpack_doubles(words: list[int]) -> list[float]:
    """Reassemble float64s from a received word stream."""
    return [
        words_to_float(words[2 * i], words[2 * i + 1])
        for i in range(len(words) // 2)
    ]
