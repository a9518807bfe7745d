"""The MPMMU node: slave memory-controller processor.

State machine per transaction type (Fig. 4):

* read (single/block): pop request -> busy for service overhead plus the
  cache/DDR access -> push data reply flit(s) into the outgoing FIFO;
* write (single/block): pop request -> busy for service overhead -> grant
  ACK -> collect the writer's data flits from the Pif-Data FIFO -> busy
  for the write -> final ACK;
* lock/unlock: pop request -> busy for service overhead -> ACK (or NACK
  when the lock is held).

One transaction is in service at a time, and replies drain at one flit per
cycle through the single NoC port — the serialization that makes shared
memory the bottleneck MEDEA's message-passing path avoids.

The local cache is modelled write-through: it accelerates reads (the
latency of a read "strongly depends on the availability of the given word
inside the cache", Section II-C) while the DDR word store stays
authoritative, which keeps post-simulation validation reads simple.

The three per-flit counters (``requests_received``,
``data_flits_received``, ``reply_flits_sent``) are plain ints counted
where the flit moves (``_phase_rx``, ``_phase_out``), which every read of
``mpmmu.stats`` adds in (the counter set's batch).
"""

from __future__ import annotations

import enum

from repro.cache.l1 import L1Cache
from repro.errors import ConfigError, ProtocolError
from repro.kernel.component import Component
from repro.kernel.fifo import Fifo
from repro.mem.ddr import DdrModel
from repro.noc.flit import Flit
from repro.noc.network import NodePorts
from repro.noc.packet import (
    ACK, ADDR, BLOCK_READ, BLOCK_WRITE, DATA, LOCK, MESSAGE, NACK,
    SINGLE_READ, SINGLE_WRITE, UNLOCK, PacketType,
)
from repro.mpmmu.lock_table import LockTable


class _MpmmuState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    WAIT_DATA = "wait_data"


# Members as module constants, for the reason given in repro.noc.packet.
_IDLE, _BUSY, _WAIT_DATA = _MpmmuState

#: Size of the MPMMU's local cache (the reference design's; the paper's
#: sweep turns the workers' caches only).
MPMMU_CACHE_KB = 16

#: Per-transaction counter keys, indexed by packet type.
_SERVED_KEY = tuple(f"served_{kind.name.lower()}" for kind in PacketType)


class _WriteAssembly:
    """Collects the data flits of a granted write transaction."""

    __slots__ = ("src", "addr", "kind", "expected", "slots", "filled")

    def __init__(self, src: int, addr: int, kind: PacketType, expected: int):
        self.src = src
        self.addr = addr
        self.kind = kind
        self.expected = expected
        self.slots: list[int | None] = [None] * expected
        self.filled = 0

    def insert(self, flit: Flit) -> bool:
        if flit.src != self.src:
            raise ProtocolError(
                f"data flit from node {flit.src} during write granted to "
                f"node {self.src}"
            )
        if not (0 <= flit.seq < self.expected) or self.slots[flit.seq] is not None:
            raise ProtocolError(f"bad write data sequence {flit.seq}")
        self.slots[flit.seq] = flit.data
        self.filled += 1
        return self.filled == self.expected

    def words(self) -> list[int]:
        if self.filled != self.expected:
            raise ProtocolError(
                f"mpmmu: write assembled with {self.filled} of "
                f"{self.expected} words (granted to node {self.src}, "
                f"address {self.addr:#x})"
            )
        # insert() refuses duplicates and out-of-range seqs, so a full
        # count means every slot holds a word.
        return self.slots  # type: ignore[return-value]


class MpmmuNode(Component):
    """The memory node of the system (placed at one NoC tile)."""

    def __init__(
        self,
        ports: NodePorts,
        cache: L1Cache,
        ddr: DdrModel,
        n_workers: int,
        # The MPMMU is a processor running protocol software: cycles of
        # decode/dispatch per transaction, before the cache/DDR access.
        # 12 is the value behind every committed golden, pin and report
        # (with it `compare` reads sm/full 2.07x at 6 cores against the
        # paper's ~2x).
        service_overhead: int = 12,
        cache_hit_cycles: int = 2,
        out_fifo_depth: int = 16,
        data_fifo_depth: int = 8,
    ) -> None:
        super().__init__("mpmmu")
        # A block reply is pushed whole: a shallower FIFO would overflow
        # mid-run instead of refusing at build.
        if out_fifo_depth < cache.words_per_line:
            raise ConfigError(
                f"mpmmu: out_fifo_depth {out_fifo_depth} cannot hold one "
                f"block reply ({cache.words_per_line} flits)"
            )
        self.ports = ports
        ports.eject.owner = self
        self.cache = cache
        self.ddr = ddr
        self.locks = LockTable()
        self.service_overhead = service_overhead
        self.cache_hit_cycles = cache_hit_cycles
        self.req_fifo: Fifo[Flit] = Fifo(n_workers, name="mpmmu.req")
        self.data_fifo: Fifo[Flit] = Fifo(data_fifo_depth, name="mpmmu.data")
        self.out_fifo: Fifo[Flit] = Fifo(out_fifo_depth, name="mpmmu.out")
        self._state = _IDLE
        self._busy_until = 0
        self._after_busy: list[Flit] = []
        self._after_state = _IDLE
        self._assembly: _WriteAssembly | None = None
        # Stable bindings of the deques behind the four queues (the
        # ejection port's is one): an emptiness or capacity test in step()
        # is then a truth test or a len() of a deque, not a Python-level
        # Fifo property call.
        self._rx_items = ports.eject.queue
        self._req_items = self.req_fifo._items
        self._data_items = self.data_fifo._items
        self._out_items = self.out_fifo._items
        self._n_requests = self._n_data_flits = self._n_replies = 0
        self.stats.batch(self, (
            ("_n_requests", "requests_received"),
            ("_n_data_flits", "data_flits_received"),
            ("_n_replies", "reply_flits_sent"),
        ))

    # -- clocked behaviour ---------------------------------------------------

    def step(self, cycle: int) -> None:
        # Each phase is entered only when its guard holds; the phase
        # bodies rely on that and do not test again.
        rx = self._rx_items
        if rx:
            self._phase_rx(rx[0])
        state = self._state
        if state is _BUSY:
            if cycle >= self._busy_until:
                self._phase_fsm(cycle)
        elif state is _WAIT_DATA:
            if self._data_items:
                self._drain_write_data(cycle)
        elif self._req_items:
            self._begin_service(self.req_fifo.pop(), cycle)
        out = self._out_items
        if out and self.ports.inject.pending is None:
            self._phase_out(cycle)
        if rx or out:
            return
        state = self._state
        if state is _BUSY:
            # Nothing can happen before _busy_until: the FSM is gated on
            # it, the RX and out queues are empty, and a flit delivery
            # re-wakes the node in its arrival cycle.  Queued requests
            # keep (exactly) until the wakeup, so sleep through the
            # service window even when req_fifo is non-empty.
            self.sleep(until=self._busy_until)
        elif not (self._data_items if state is _WAIT_DATA else self._req_items):
            # WAIT_DATA with no data flit buffered (queued requests keep,
            # as above), or IDLE with no request: wake on delivery.
            self.sleep()

    def _phase_rx(self, flit: Flit) -> None:
        """Move ``flit``, the head of the ejection queue, into its FIFO."""
        if flit.ptype >= MESSAGE:
            # The reference MPMMU takes no part in eMPI traffic (neither
            # MESSAGE nor MULTICAST flits).
            raise ProtocolError(f"mpmmu received message flit {flit!r}")
        subtype = flit.subtype
        # Each arm tests its FIFO's capacity, so the flit is appended to
        # the deque behind it directly.
        if subtype == ADDR:
            items = self._req_items
            if len(items) >= self.req_fifo.capacity:
                # Request FIFO depth equals the worker count; overflow means
                # a core broke the one-outstanding-transaction contract.
                raise ProtocolError("mpmmu request FIFO overflow")
            self._n_requests += 1
        elif subtype == DATA:
            items = self._data_items
            if len(items) >= self.data_fifo.capacity:
                return  # leave it in the ejection queue until space frees
            self._n_data_flits += 1
        else:
            raise ProtocolError(f"mpmmu got unexpected subtype in {flit!r}")
        items.append(self._rx_items.popleft())

    def _phase_fsm(self, cycle: int) -> None:
        """The service window has elapsed: release the replies and move on."""
        push = self.out_fifo.push
        for flit in self._after_busy:
            push(flit)
        self._after_busy = []
        state = self._state = self._after_state
        if state is _WAIT_DATA:
            if self._data_items:
                self._drain_write_data(cycle)
        elif self._req_items:
            self._begin_service(self.req_fifo.pop(), cycle)

    def _phase_out(self, cycle: int) -> None:
        flit = self._out_items.popleft()
        self._n_replies += 1
        if not self.ports.inject.try_inject(flit):
            raise ProtocolError(
                f"mpmmu: cycle {cycle}: injection port reported free but "
                f"rejected {flit!r}"
            )

    # -- transaction service -------------------------------------------------------

    def _begin_service(self, flit: Flit, cycle: int) -> None:
        kind = flit.ptype
        addr = flit.data
        src = flit.src
        self.stats.inc(_SERVED_KEY[kind])
        if kind is SINGLE_READ or kind is BLOCK_READ:
            n_words = 1 if kind is SINGLE_READ else 4
            words, access = self._read_words(addr, n_words)
            node = self.ports.node
            # Flits are built positionally throughout: (dst, src, ptype,
            # subtype, seq, burst, data); keywords doubled the cost.
            replies = [
                Flit(src, node, kind, DATA, index, n_words, word)
                for index, word in enumerate(words)
            ]
            self._go_busy(cycle, self.service_overhead + access, replies)
            return
        # Every other kind is answered by one ACK (or NACK) flit.
        subtype = ACK
        then = _IDLE
        if kind is SINGLE_WRITE or kind is BLOCK_WRITE:
            n_words = 1 if kind is SINGLE_WRITE else 4
            self._assembly = _WriteAssembly(src, addr, kind, n_words)
            then = _WAIT_DATA
        elif kind is LOCK:
            if not self.locks.acquire(addr, src):
                subtype = NACK
        elif kind is UNLOCK:
            self.locks.release(addr, src)
        else:
            raise ProtocolError(f"mpmmu cannot serve {flit!r}")
        reply = Flit(src, self.ports.node, kind, subtype, 0, 1, 0)
        self._go_busy(cycle, self.service_overhead, [reply], then)

    def _drain_write_data(self, cycle: int) -> None:
        """Take one buffered data flit into the granted write."""
        flit = self.data_fifo.pop()
        assembly = self._assembly
        if assembly is None:
            raise ProtocolError(
                f"mpmmu: cycle {cycle}: data flit {flit!r} with no write "
                f"granted"
            )
        if assembly.insert(flit):
            cost = self._write_words(assembly.addr, assembly.words())
            self._assembly = None
            final = Flit(assembly.src, self.ports.node, assembly.kind, ACK, 0, 1, 0)
            self._go_busy(cycle, cost, [final])
            self.stats.inc("writes_committed")

    def _go_busy(
        self,
        cycle: int,
        cost: int,
        replies: list[Flit],
        then: _MpmmuState = _MpmmuState.IDLE,
    ) -> None:
        if cost < 1:
            cost = 1
        self._state = _BUSY
        self._busy_until = cycle + cost
        self._after_busy = replies
        self._after_state = then
        self.stats.inc("busy_cycles", cost)

    # -- memory access (timing + data) ------------------------------------------------

    def _read_words(self, addr: int, n_words: int) -> tuple[list[int], int]:
        """Return (words, access_cycles) through the local cache."""
        line = self.cache.lookup(addr)
        if line is None:
            line_addr = self.cache.line_addr(addr)
            words, cost = self.ddr.read_block(line_addr, self.cache.words_per_line)
            self.cache.install(line_addr, words)
            offset = (addr - line_addr) >> 2
            return words[offset : offset + n_words], cost + self.cache_hit_cycles
        base = (addr % self.cache.line_bytes) >> 2
        return list(line.words[base : base + n_words]), self.cache_hit_cycles

    def _write_words(self, addr: int, words: list[int]) -> int:
        """Write-through: update the cached line if present, always hit DDR."""
        line = self.cache.lookup(addr, is_write=True)
        if line is not None:
            base = (addr % self.cache.line_bytes) >> 2
            for offset, word in enumerate(words):
                line.words[base + offset] = word
        return self.cache_hit_cycles + self.ddr.write_block(addr, words)

    # -- introspection ---------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self._state is _IDLE and not (
            self._req_items or self._data_items or self._out_items
            or self._rx_items
        )
