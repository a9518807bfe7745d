"""Segmented global memory map.

The global shared memory is divided into one *shared* segment and N
*private* segments, one per worker core (paper Section II-C).  Private
segments need no coherence support (only their owner may touch them);
shared data needs the software flush/invalidate protocol of Section II-E.

Layout (byte addresses inside the DDR):

```
0x0000_0000  shared segment           (shared_size bytes)
shared_size  private segment, rank 0  (private_size bytes)
...          private segment, rank k  at shared_size + k * private_size
```
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, MemoryAccessError


@dataclass(frozen=True)
class Segment:
    """A contiguous address range with an owner (-1 = shared)."""

    name: str
    base: int
    size: int
    owner: int  # worker rank, or -1 for the shared segment

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class MemoryMap:
    """Shared + per-rank private segments over one DDR address space."""

    def __init__(
        self,
        n_workers: int,
        shared_size: int = 1 << 20,
        private_size: int = 1 << 20,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"need at least one worker, got {n_workers}")
        for label, size in (("shared", shared_size), ("private", private_size)):
            if size <= 0 or size % 16:
                raise ConfigError(
                    f"{label} segment size must be a positive multiple of a "
                    f"16-byte cache line, got {size}"
                )
        self.n_workers = n_workers
        self.shared = Segment("shared", 0, shared_size, owner=-1)
        self.privates = [
            Segment(f"private[{rank}]", shared_size + rank * private_size,
                    private_size, owner=rank)
            for rank in range(n_workers)
        ]
        self.total_size = shared_size + n_workers * private_size

    # -- lookups ----------------------------------------------------------------

    def segment_of(self, addr: int) -> Segment:
        shared_size = self.shared.size  # the shared segment starts at 0
        if addr >= shared_size:
            if addr < self.total_size:
                rank = (addr - shared_size) // self.privates[0].size
                return self.privates[rank]
            raise MemoryAccessError(
                f"address {addr:#x} beyond mapped memory ({self.total_size:#x})"
            )
        if addr >= 0:
            return self.shared
        raise MemoryAccessError(f"address {addr:#x} below mapped memory")

    def is_shared(self, addr: int) -> bool:
        return self.shared.contains(addr)

    def private_base(self, rank: int) -> int:
        if not (0 <= rank < self.n_workers):
            raise MemoryAccessError(f"no private segment for rank {rank}")
        return self.privates[rank].base

    def check_access(self, rank: int, addr: int, n_bytes: int = 4) -> Segment:
        """Validate that ``rank`` may touch [addr, addr+n_bytes).

        Enforces the paper's ownership rule: private segments are only
        accessible to their owner.  Returns the containing segment.

        This sits on the core's per-load/store path, so the common case
        (an in-bounds access that stays inside one segment) is decided
        with plain integer arithmetic before any Segment object is built.
        """
        shared = self.shared
        if addr < shared.size:
            if addr + n_bytes <= shared.size and addr >= 0:
                return shared
        elif 0 <= rank < self.n_workers:
            own = self.privates[rank]
            base = own.base
            if base <= addr and addr + n_bytes <= base + own.size:
                return own
        segment = self.segment_of(addr)
        if not segment.contains(addr + n_bytes - 1):
            raise MemoryAccessError(
                f"access {addr:#x}+{n_bytes} crosses segment {segment.name}"
            )
        if segment.owner not in (-1, rank):
            raise MemoryAccessError(
                f"rank {rank} touched {segment.name} at {addr:#x}"
            )
        return segment

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MemoryMap shared={self.shared.size:#x} "
            f"{self.n_workers}x private={self.privates[0].size:#x}>"
        )
