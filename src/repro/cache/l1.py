"""Set-associative L1 cache state model."""

from __future__ import annotations

import enum

from repro.errors import ConfigError, MemoryAccessError, parse_enum
from repro.kernel.stats import CounterSet


class WritePolicy(enum.Enum):
    """The two write policies explored by the paper."""

    WRITE_BACK = "wb"
    WRITE_THROUGH = "wt"

    @classmethod
    def parse(cls, value: "WritePolicy | str") -> "WritePolicy":
        return parse_enum(cls, value, "write policy")


# Members as module constants, for the reason given in repro.noc.packet.
WRITE_BACK, __ = WritePolicy

#: The wire protocol (block transactions of 4 words, 4-bit seq) is built
#: around 16-byte lines, like the reference design.
LINE_BYTES = 16


class CacheLine:
    """One cache line: tag, state bits and the actual data words."""

    __slots__ = ("tag", "valid", "dirty", "words", "lru")

    def __init__(self, words_per_line: int) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.words = [0] * words_per_line
        self.lru = 0


class L1Cache:
    """A blocking, set-associative, LRU cache with real data contents.

    Holding real words (not just tags) means a protocol bug — a missing
    flush, a stale line, a mis-sequenced refill — corrupts computed
    results and fails the numerical validation tests, instead of silently
    producing plausible-but-wrong cycle counts.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = LINE_BYTES,
        assoc: int = 2,
        policy: WritePolicy | str = WritePolicy.WRITE_BACK,
        name: str = "l1",
    ) -> None:
        policy = WritePolicy.parse(policy)
        if line_bytes < 4 or line_bytes & (line_bytes - 1):
            raise ConfigError(f"line_bytes must be a power of two >= 4: {line_bytes}")
        if size_bytes < line_bytes or size_bytes % line_bytes:
            raise ConfigError(
                f"cache size {size_bytes} not a multiple of line size {line_bytes}"
            )
        n_lines = size_bytes // line_bytes
        if assoc < 1 or assoc > n_lines or n_lines % assoc:
            raise ConfigError(f"bad associativity {assoc} for {n_lines} lines")
        n_sets = n_lines // assoc
        if n_sets & (n_sets - 1):
            raise ConfigError(f"set count must be a power of two, got {n_sets}")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // 4
        self.assoc = assoc
        self.n_sets = n_sets
        self.policy = policy
        # A set no refill has reached yet is the shared empty tuple (every
        # tag scan iterates the set, so lookups need not know); install()
        # allocates its ``assoc`` lines.  Building them all up front was
        # most of a 64-tile system's construction time.
        self._sets: list[tuple | list[CacheLine]] = [()] * n_sets
        self._tick = 0
        self.stats = CounterSet(name)

    # -- address helpers -----------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.line_bytes - 1)

    def _locate(self, addr: int) -> tuple[int, int]:
        line_index = addr // self.line_bytes
        return line_index % self.n_sets, line_index // self.n_sets

    # -- lookups ------------------------------------------------------------------

    def probe(self, addr: int) -> CacheLine | None:
        """Tag match without statistics or LRU update (for debug reads)."""
        set_index, tag = self._locate(addr)
        for line in self._sets[set_index]:
            if line.valid and line.tag == tag:
                return line
        return None

    def lookup(
        self, addr: int, is_write: bool = False, count_miss: bool = True,
        words: int = 1,
    ) -> CacheLine | None:
        """Tag match with hit/miss accounting and LRU touch.

        ``count_miss=False`` is for a core probing ahead of the clock: a
        hit is complete (nothing else can touch the line first), a miss
        is left unrecorded for the lookup made on the cycle the access
        issues, which counts it once.  A hit for ``words`` accesses to one
        line leaves the cache as that many lookups would.
        """
        line_index = addr // self.line_bytes
        set_index = line_index % self.n_sets
        tag = line_index // self.n_sets
        counters = self.stats._counters
        for line in self._sets[set_index]:
            if line.valid and line.tag == tag:
                self._tick += words
                line.lru = self._tick
                key = "write_hits" if is_write else "read_hits"
                counters[key] = counters.get(key, 0) + words
                return line
        if count_miss:
            key = "write_misses" if is_write else "read_misses"
            counters[key] = counters.get(key, 0) + 1
        return None

    # -- data access (line must be present) ----------------------------------------

    def read_word(self, addr: int) -> int:
        line = self.probe(addr)
        if line is None:
            raise MemoryAccessError(f"{self.name}: read_word on absent line {addr:#x}")
        return line.words[(addr % self.line_bytes) >> 2]

    def write_word(self, addr: int, value: int, mark_dirty: bool = True) -> None:
        line = self.probe(addr)
        if line is None:
            raise MemoryAccessError(f"{self.name}: write_word on absent line {addr:#x}")
        line.words[(addr % self.line_bytes) >> 2] = value
        if mark_dirty:
            line.dirty = True

    # -- refill path -----------------------------------------------------------------

    def victim_for(self, addr: int) -> tuple[bool, int, list[int]]:
        """Pick the LRU victim for a refill of ``addr``'s line.

        Returns ``(needs_writeback, victim_line_addr, victim_words)``.
        The victim is *not* modified; call :meth:`install` afterwards.
        """
        set_index, __ = self._locate(addr)
        ways = self._sets[set_index]
        if not ways:  # nothing was ever installed here: no write-back
            return False, 0, []
        victim = ways[0]
        for line in ways:
            if not line.valid:
                return False, 0, []
            if line.lru < victim.lru:
                victim = line
        victim_addr = self._line_base(victim.tag, set_index)
        if victim.dirty:
            return True, victim_addr, list(victim.words)
        return False, victim_addr, []

    def install(self, addr: int, words: list[int]) -> None:
        """Fill the line containing ``addr`` (victim chosen as in victim_for)."""
        if len(words) != self.words_per_line:
            raise MemoryAccessError(
                f"{self.name}: refill needs {self.words_per_line} words, "
                f"got {len(words)}"
            )
        set_index, tag = self._locate(addr)
        ways = self._sets[set_index]
        if not ways:
            ways = self._sets[set_index] = [
                CacheLine(self.words_per_line) for _ in range(self.assoc)
            ]
        victim = ways[0]
        for line in ways:
            if not line.valid:
                victim = line
                break
            if line.lru < victim.lru:
                victim = line
        if victim.valid:
            self.stats.inc("evictions_dirty" if victim.dirty else "evictions_clean")
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        victim.words[:] = words
        self._tick += 1
        victim.lru = self._tick
        self.stats.inc("refills")

    def _line_base(self, tag: int, set_index: int) -> int:
        return (tag * self.n_sets + set_index) * self.line_bytes

    # -- software coherence ops (Xtensa DHWB / DII) --------------------------------------

    def writeback_line(self, addr: int) -> tuple[int, list[int]] | None:
        """DHWB: return (line_addr, words) if the line is dirty; mark clean.

        The caller is responsible for actually sending the words to memory
        (the node posts a block write).  Returns None when there is nothing
        to write back.  The line stays valid, as in the Xtensa DHWB.
        """
        self.stats.inc("dhwb_ops")
        line = self.probe(addr)
        if line is None or not line.dirty:
            return None
        line.dirty = False
        self.stats.inc("writebacks")
        set_index, __ = self._locate(addr)
        return self._line_base(line.tag, set_index), list(line.words)

    def invalidate_line(self, addr: int) -> bool:
        """DII: drop the line without writeback; True if a line was dropped.

        Invalidating a dirty line silently discards data — exactly what the
        hardware instruction does; the counter lets tests assert programs
        never do it to lines they own.
        """
        self.stats.inc("dii_ops")
        line = self.probe(addr)
        if line is None:
            return False
        if line.dirty:
            self.stats.inc("dii_dirty_dropped")
        line.valid = False
        line.dirty = False
        self.stats.inc("invalidations")
        return True

    # -- maintenance --------------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.stats["read_hits"] + self.stats["write_hits"]

    @property
    def misses(self) -> int:
        return self.stats["read_misses"] + self.stats["write_misses"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<L1Cache {self.name} {self.size_bytes // 1024}kB "
            f"{self.assoc}-way {self.policy.value}>"
        )
