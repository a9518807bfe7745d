"""Per-PE local data RAM.

Each Xtensa has a single-cycle local data memory; the TIE receive interface
scatters incoming message flits straight into it (Fig. 2-b), and programs
read received data from it at one word per cycle.  It is private to its PE,
so there is no coherence concern and no NoC traffic for local accesses.
"""

from __future__ import annotations

from repro.mem.store import WordStore


class Scratchpad:
    """Single-cycle local memory."""

    #: Access latency in core cycles.
    ACCESS_CYCLES = 1

    def __init__(self, size_bytes: int = 1 << 20, name: str = "localmem") -> None:
        self.store = WordStore(size_bytes, name=name)
        self.size_bytes = size_bytes

    def read_word(self, addr: int) -> int:
        return self.store.read_word(addr)

    def write_word(self, addr: int, value: int) -> None:
        self.store.write_word(addr, value)

    def read_block(self, addr: int, n_words: int) -> list[int]:
        return self.store.read_block(addr, n_words)

    def write_block(self, addr: int, values: list[int]) -> None:
        self.store.write_block(addr, values)
