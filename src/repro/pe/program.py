"""Program context: the architectural API programs are written against.

A MEDEA *program* is a Python generator function taking a
:class:`ProgramContext` and yielding operation tuples; the owning
:class:`~repro.pe.processor.ProcessorNode` executes each operation with
cycle-accurate cost and sends results back into the generator.  This is the
software layer of the paper — the same role the authors' C code plus eMPI
library plays on the real Xtensa.

Primitive operations (yield one, receive its result):

=====================  ==========================================  =========
op tuple               effect                                      result
=====================  ==========================================  =========
("compute", n)         occupy the core for n cycles                None
("load", a)            cached word load (global address)           word
("store", a, v)        cached word store                           None
("load_double", a)     cached double load: the words at a, a + 4   float
("store_double", a, v) cached double store: v's two words          None
("uload", a)           uncached word load (bypasses L1)            word
("ustore", a, v)       uncached posted word store                  None
("flush", a)           DHWB: write back the dirty line holding a   None
("inval", a)           DII: invalidate the line holding a          None
("fence",)             drain write buffer + posted transactions    None
("lmem_read", a)       local scratchpad read                       word
("lmem_write", a, v)   local scratchpad write                      None
("send", n, ws)        TIE data message to node n (1 flit/cycle)   None
("recv", n, k)         wait for k words from node n, copy them     [words]
("sendreq", n, w)      single-flit control token to node n         None
("recvreq",)           wait for a control token                    (src, w)
("isend", n, ws)       post a TIE TX descriptor; do not wait       None
("txdone",)            poll the TIE TX status register             bool
("trecv", n, k)        k words from node n if ready, else None     [w]|None
("qmcast", m, ws)      post a descriptor on the DMA queue: a send  bool
                       to the group bitmask m (one bit set = a
                       unicast engine send); False = queue full
("qreduce", n, vs, o)  post accumulate-on-receive: combine the     bool
                       multicast stream from node n into the
                       doubles accumulator vs with ReduceOp o
("qrpoll",)            poll the reduce status; the finished        [v]|None
                       accumulator once combined, else None
("mrecv", n, k)        wait for k multicast-stream words from n    [words]
("tmrecv", n, k)       multicast words from n if ready, else None  [w]|None
("lock", a)            MPMMU lock word a (spins on NACK)           None
("unlock", a)          MPMMU unlock word a                         None
("note", label)        log a user mark at this cycle; zero cycles  None
("note", kind, key,    log a typed runtime event (the kinds of     None
 payload)              repro.kernel.trace); zero cycles
=====================  ==========================================  =========

A double is two 32-bit words (:mod:`repro.mem.values`): ``load_double``/
``store_double`` are the word ops at ``a`` and ``a + 4`` in one op.  The
helpers below compose these into uncached doubles, row transfers, range
flush/invalidate, etc., so application code reads like the C it stands for.

**Only ops carry a cycle.**  Each op executes on its exact simulated
cycle, and anything it can observe or change outside the core (memory,
messages, locks, the event log) does so on that cycle.  The Python
between two yields has no cycle of its own: it runs whenever the core
reaches it, which may be *earlier* in host time than its simulated
cycle, because a core runs ahead of the clock over ops nothing outside
it can see (``compute``, L1 hits, scratchpad accesses) and only then
waits for the cycle of the next op that leaves the core; a double op
spends two cycles, word by word whenever its words cannot both hit at
once before anyone looks (``repro.pe.processor``).  So two
programs must not communicate through shared Python state (a list both
append to, a flag one sets and the other reads): the order of such side
effects across tiles is host order, not simulated order.  To order
things on simulated time, yield an op — ``ctx.note(label)`` stamps the
cycle it executes on.  For the same reason an exception raised between
yields, or by an op's own checks, surfaces when the core reaches it.
"""

from __future__ import annotations

import typing
from collections.abc import Generator

from repro.cache.l1 import LINE_BYTES
from repro.errors import ProgramError
from repro.mem.memory_map import MemoryMap
from repro.mem.values import (
    float_to_words,
    pack_doubles,
    unpack_doubles,
    words_to_float,
)
from repro.pe.costmodel import FpCostModel

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.empi.runtime import Empi
    from repro.empi.schedules import Agreement

#: Type alias for program generators.
Program = Generator[tuple, object, None]


class ProgramContext:
    """Everything a program can see: identity, memory map, cost model, eMPI."""

    def __init__(
        self,
        rank: int,
        n_workers: int,
        node_id: int,
        memory_map: MemoryMap,
        cost: FpCostModel,
        rank_to_node: dict[int, int],
        dma_queue_depth: int = 0,
        dma_reduce_assist: bool = True,
        empi_timeout_cycles: int = 0,
        empi_timeout_retries: int = 3,
    ) -> None:
        self.rank = rank
        self.n_workers = n_workers
        self.node_id = node_id
        self.map = memory_map
        self.cost = cost
        self.rank_to_node = rank_to_node
        #: Depth of this tile's DMA TX queue (0 = no engine; the ``hw``
        #: collective algorithm refuses to run without one).
        self.dma_queue_depth = dma_queue_depth
        #: Whether the engine's accumulate-on-receive (qreduce) datapath
        #: is used by the runtime's hw/ring reductions.  Off = PR-4
        #: behaviour: the combining leg serializes through processor ops.
        self.dma_reduce_assist = dma_reduce_assist
        #: eMPI wait/progress cycle budget before a timed retry; 0 = the
        #: fault-free default, wait forever.
        self.empi_timeout_cycles = empi_timeout_cycles
        #: Exponential-backoff retries before a timed-out eMPI wait
        #: raises :class:`~repro.errors.EmpiTimeoutError`.
        self.empi_timeout_retries = empi_timeout_retries
        #: Rank groups per compute chiplet (None on flat topologies):
        #: ``rank_groups[c]`` lists the ranks living on chiplet ``c``, in
        #: node order.  The hierarchical collectives ring within each
        #: group and tree across the group leaders.
        self.rank_groups: list[list[int]] | None = None
        # Bound by the system builder (import cycle otherwise).
        self.empi: "Empi | None" = None
        #: Optional () -> str callable supplying the run's report for
        #: timeout diagnostics (``MedeaSystem.report``); set by the
        #: system builder.
        self.report: "typing.Callable[[], str] | None" = None
        #: Whether eMPI brackets collectives with critical-path events
        #: (TelemetryConfig.attribution); set by the system builder.
        self.attribution = False
        #: The loaded system's :class:`~repro.empi.schedules.Agreement`,
        #: shared by all its ranks (None: collectives go unchecked); set
        #: by the system builder.
        self.agreement: "Agreement | None" = None

    # -- address helpers -----------------------------------------------------

    @property
    def shared_base(self) -> int:
        return self.map.shared.base

    @property
    def private_base(self) -> int:
        return self.map.private_base(self.rank)

    def node_of(self, rank: int) -> int:
        return self.rank_to_node[rank]

    # -- op builders -----------------------------------------------------------

    @staticmethod
    def compute(cycles: int) -> tuple:
        return ("compute", cycles)

    def fp_add(self) -> tuple:
        return ("compute", self.cost.fp_add)

    def fp_mul(self) -> tuple:
        return ("compute", self.cost.fp_mul)

    def fp_cmp(self) -> tuple:
        return ("compute", self.cost.fp_cmp)

    @staticmethod
    def load(addr: int) -> tuple:
        return ("load", addr)

    @staticmethod
    def store(addr: int, value: int) -> tuple:
        return ("store", addr, value)

    @staticmethod
    def load_double(addr: int) -> tuple:
        return ("load_double", addr)

    @staticmethod
    def store_double(addr: int, value: float) -> tuple:
        return ("store_double", addr, value)

    @staticmethod
    def note(label: str) -> tuple:
        return ("note", label)

    # -- uncached doubles (two word ops each) ----------------------------------

    def uncached_load_double(self, addr: int) -> Program:
        low = yield ("uload", addr)
        high = yield ("uload", addr + 4)
        return words_to_float(low, high)

    def uncached_store_double(self, addr: int, value: float) -> Program:
        low, high = float_to_words(value)
        yield ("ustore", addr, low)
        yield ("ustore", addr + 4, high)

    # -- cache-management helpers ------------------------------------------------------

    def flush_range(self, addr: int, n_bytes: int) -> Program:
        """DHWB every line overlapping [addr, addr + n_bytes)."""
        for line_addr in _lines(addr, n_bytes):
            yield ("flush", line_addr)

    def invalidate_range(self, addr: int, n_bytes: int) -> Program:
        """DII every line overlapping [addr, addr + n_bytes)."""
        for line_addr in _lines(addr, n_bytes):
            yield ("inval", line_addr)

    # -- message helpers (rank-addressed) -------------------------------------------------

    def send_words(self, dst_rank: int, words: list[int]) -> tuple:
        return ("send", self.node_of(dst_rank), words)

    def recv_words(self, src_rank: int, n_words: int) -> tuple:
        return ("recv", self.node_of(src_rank), n_words)

    def send_doubles(self, dst_rank: int, values: list[float]) -> Program:
        yield ("send", self.node_of(dst_rank), pack_doubles(values))

    def recv_doubles(self, src_rank: int, n_values: int) -> Program:
        words = yield ("recv", self.node_of(src_rank), 2 * n_values)
        return unpack_doubles(words)


def _lines(addr: int, n_bytes: int) -> range:
    """The line addresses overlapping [addr, addr + n_bytes), if any."""
    if n_bytes < 0:
        raise ProgramError(f"negative range length {n_bytes} at {addr:#x}")
    first = addr & ~(LINE_BYTES - 1)
    return range(first, addr + n_bytes if n_bytes else first, LINE_BYTES)


def word_ops(op: tuple) -> Program:
    """A double op as the two word ops it stands for, returning its result
    (the interpreter's word path; an ``overlap`` region's two instructions)."""
    addr = op[1]
    if op[0] == "load_double":
        low = yield ("load", addr)
        high = yield ("load", addr + 4)
        return words_to_float(low, high)
    low, high = float_to_words(op[2])
    yield ("store", addr, low)
    yield ("store", addr + 4, high)
