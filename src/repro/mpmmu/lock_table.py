"""Lock table: word-granular locks for atomic shared-memory sections."""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.kernel.stats import CounterSet


class LockTable:
    """Tracks which node holds a lock on which shared-memory word."""

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity
        self._held: dict[int, int] = {}
        self.stats = CounterSet("locks")

    def acquire(self, addr: int, owner: int) -> bool:
        """Try to lock ``addr`` for ``owner``; False when already held.

        Re-acquiring a lock you already hold is a protocol error — the
        paper's protocol has no recursive locks, so a re-request means a
        software bug worth failing loudly on.
        """
        holder = self._held.get(addr)
        if holder == owner:
            raise ProtocolError(f"node {owner} re-locking {addr:#x} it already holds")
        if holder is not None:
            self.stats.inc("contended_requests")
            return False
        if self.capacity is not None and len(self._held) >= self.capacity:
            self.stats.inc("table_full_rejections")
            return False
        self._held[addr] = owner
        self.stats.inc("acquisitions")
        return True

    def release(self, addr: int, owner: int) -> None:
        holder = self._held.get(addr)
        if holder is None:
            raise ProtocolError(f"node {owner} unlocking {addr:#x} which is free")
        if holder != owner:
            raise ProtocolError(
                f"node {owner} unlocking {addr:#x} held by node {holder}"
            )
        del self._held[addr]
        self.stats.inc("releases")

    @property
    def held_count(self) -> int:
        return len(self._held)
