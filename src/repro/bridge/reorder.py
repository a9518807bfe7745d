"""Reorder buffer for out-of-order block-read replies.

Deflection routing may deliver the four data flits of a block read in any
order; the bridge's reorder buffer places each arriving word at its
sequence-number slot and signals completion when all expected words are
present (paper Section II-B: "a reordering buffer which currently has a
depth of four words").
"""

from __future__ import annotations

from repro.errors import ProtocolError


class ReorderBuffer:
    """Fixed-depth, sequence-indexed assembly buffer."""

    def __init__(self, depth: int = 4) -> None:
        if depth < 1:
            raise ProtocolError(f"reorder buffer depth must be >= 1, got {depth}")
        self.depth = depth
        self._slots: list[int | None] = [None] * depth
        self._expected = 0
        self._filled = 0
        self.max_out_of_order = 0

    def begin(self, expected: int) -> None:
        """Arm the buffer for ``expected`` incoming words."""
        if expected < 1 or expected > self.depth:
            raise ProtocolError(
                f"expected {expected} words exceeds reorder depth {self.depth}"
            )
        self._slots = [None] * self.depth
        self._expected = expected
        self._filled = 0

    def insert(self, seq: int, word: int) -> bool:
        """Place a word; returns True when the burst is complete."""
        if self._expected == 0:
            raise ProtocolError("reorder buffer got data with no burst armed")
        if not (0 <= seq < self._expected):
            raise ProtocolError(
                f"sequence number {seq} outside armed burst of {self._expected}"
            )
        if self._slots[seq] is not None:
            raise ProtocolError(f"duplicate sequence number {seq}")
        self._slots[seq] = word
        if seq != self._filled:
            self.max_out_of_order = max(self.max_out_of_order, abs(seq - self._filled))
        self._filled += 1
        return self._filled == self._expected

    def take(self) -> list[int]:
        """Return the completed, in-order words and disarm the buffer."""
        if self._expected == 0 or self._filled != self._expected:
            raise ProtocolError("reorder buffer not complete")
        # insert() refuses duplicates and out-of-range seqs, so a full
        # count means every slot below _expected holds a word.
        words = [w for w in self._slots[: self._expected]]
        self._expected = 0
        self._filled = 0
        return words  # type: ignore[return-value]

    @property
    def busy(self) -> bool:
        return self._expected > 0
