"""PIF bus transaction descriptors.

A :class:`MemTransaction` is what the processor's memory pipeline hands to
the pif2NoC bridge: one shared-memory operation against the MPMMU.  The
bridge turns it into the wire protocol of Fig. 4 and fills in the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.noc.packet import (
    BLOCK_READ, BLOCK_WRITE, MESSAGE, SINGLE_READ, SINGLE_WRITE, PacketType,
)

#: Words in a block transaction — one 16-byte cache line.
BLOCK_WORDS = 4
#: Data words a transaction writes / reads, by kind (absent: none).
_WRITE_WORDS = {SINGLE_WRITE: 1, BLOCK_WRITE: BLOCK_WORDS}
_READ_WORDS = {SINGLE_READ: 1, BLOCK_READ: BLOCK_WORDS}


@dataclass
class MemTransaction:
    """One shared-memory operation in flight at the bridge."""

    kind: PacketType
    addr: int
    write_words: list[int] = field(default_factory=list)
    #: False for posted writes: the core does not wait for completion.
    blocking: bool = True
    read_words: list[int] = field(default_factory=list)
    #: For LOCK: True=granted, False=NACKed.  None until resolved.
    granted: bool | None = None
    issued_at: int = -1
    completed_at: int = -1

    def __post_init__(self) -> None:
        if self.kind == MESSAGE:
            raise ProtocolError("MESSAGE flits do not travel through the bridge")
        expected = self.expected_write_words
        if len(self.write_words) != expected:
            raise ProtocolError(
                f"{self.kind.name} carries {expected} write words, "
                f"got {len(self.write_words)}"
            )

    @property
    def expected_write_words(self) -> int:
        return _WRITE_WORDS.get(self.kind, 0)

    @property
    def expected_read_words(self) -> int:
        return _READ_WORDS.get(self.kind, 0)

    @property
    def is_write(self) -> bool:
        return self.kind in _WRITE_WORDS

    @property
    def latency(self) -> int:
        if self.issued_at < 0 or self.completed_at < 0:
            raise ProtocolError("transaction not complete")
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MemTransaction {self.kind.name} @{self.addr:#x}>"
