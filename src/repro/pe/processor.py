"""The processing-element node: core FSM + cache + bridge + TIE + arbiter.

One :class:`ProcessorNode` models a complete MEDEA tile (Fig. 3): the
in-order core executing its program, the L1 cache with its write policy,
the write buffer, the pif2NoC bridge with reorder buffer, the TIE
message-passing interface and the NoC-access arbiter in front of the
single injection port.

Intra-cycle phase order (one ``step`` = one clock):

1. drain one flit from the ejection port (data/req demux of Fig. 2-b),
   then let a fitted DMA engine's reduction assist combine one arrived
   multicast double into its accumulate-on-receive descriptor;
2. issue the next memory job to the bridge if it is idle;
3. offer the bridge's pending flit to the arbiter (memory class);
4. offer the message path's pending flit to the arbiter (message class):
   credits first, then request tokens, then the DMA engine's group
   stream (when a :mod:`repro.dma` engine is fitted), then the TIE's
   data stream — the core's alone: the engine streams from its own
   send window and never drives the TIE TX port;
5. run the core — execute program operations until one blocks or costs
   time (at most one timed operation per cycle);
6. arbiter grants at most one flit to the injection port.

The node sleeps whenever nothing above can make progress and is woken by
flit arrival, a scheduled compute/backoff expiry, or job completion.  Its
batched counters are folded in whenever ``stats`` is read (the counter
set's fold), not at each sleep.

A step that can only repeat the previous one costs one test.  Three kinds
of step are woken for nothing they can act on — a ``WAIT_TX`` tile whose
send is out of credit (awake every cycle, counting the stall), a blocked
tile polled for its reliability timers, a ``RUNNING`` tile woken by a
stale poll before ``_ready_at`` — and the step that has just been one
writes the **quiet horizon** (``_quiet_until``): the first cycle at which
a step that finds no flit on the RX queue, nothing in the arbiter and a
free injection slot could do anything else.  That is the reliability
agent's :meth:`~repro.pe.reliability.ReliabilityAgent.next_deadline`
(never, without an agent), capped at ``_ready_at - 1`` for a running
core.  It is written in three places only — the credit-gated arm of
``_phase_tie_tx`` and the ``RUNNING`` and poll arms of ``_phase_sleep`` —
and only when nothing *after* this step's tick touched what the tick
reads: the TX phase did not run and the core neither executed nor resumed
(``_acted_at``), and no reduction-assist descriptor is live.  The first
tick after a step that raised demand or took words must run; every later
one before the deadline cannot act.  Inside the horizon ``step`` repeats
the stalled cycle's two counters or re-issues the sleep, by core state;
a flit, a busy arbiter or slot, or ``load_program`` clears the horizon
and the six phases run untouched.  Same wake-ups, same cycles, same
counters.

Phase 5 does not visit the core once per *core-local* op.  The L1 and the
scratchpad are private to the tile under software flush/invalidate
coherence (no snoops), so a run of ``compute`` ops, L1 hits and
scratchpad accesses can be neither seen nor disturbed from outside: the
interpreter applies the whole run in one visit on a virtual cycle of its
own and parks the first op that leaves the core (a miss, a write-through
store, any TIE/DMA/bridge/lock/flush/fence op, a ``note``, the program's
end) for its exact issue cycle — bounded by the kernel's
:attr:`~repro.kernel.simulator.Simulator.horizon`, so anything that reads
a tile from outside sees the cycle-by-cycle state.  A double op is both
its words' L1 hits at once when it is 8-aligned in a segment the tile may
touch, hits (a store: under write-back) and leaves a cycle before the
horizon for the next fetch; any other runs as its two word ops
(:func:`~repro.pe.program.word_ops`), misses, stalls and errors included.

The reference machine of ``tests/reference_machine.py`` turns these
shortcuts off — the horizon zeroed before every step, ``finished`` polled
every cycle so that no core runs ahead, every double run word by word —
and whole runs must not notice.
"""

from __future__ import annotations

import enum
import typing
from collections import deque
from collections.abc import Generator

from repro.bridge.arbiter import NocAccessArbiter
from repro.bridge.pif import MemTransaction
from repro.bridge.pif2noc import Pif2NocBridge
from repro.cache.l1 import WRITE_BACK, L1Cache
from repro.errors import ProgramError, ProtocolError
from repro.kernel.component import Component
from repro.kernel.simulator import NEVER
from repro.kernel.trace import MARK, EventLog
from repro.mem.memory_map import MemoryMap
from repro.mem.scratchpad import Scratchpad
from repro.mem.values import float_to_words, words_to_float
from repro.noc.flit import Flit
from repro.noc.network import NodePorts
from repro.noc.packet import (
    BLOCK_READ, BLOCK_WRITE, LOCK, MESSAGE, SINGLE_READ, SINGLE_WRITE,
    UNLOCK, PacketType,
)
from repro.pe.costmodel import FpCostModel
from repro.pe.program import word_ops
from repro.pe.tie import (
    FINISHED, GATED, MCAST, UNICAST, ReceiveStream, TieInterface,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dma.engine import DmaTxEngine
    from repro.pe.reliability import ReliabilityAgent


class CoreState(enum.Enum):
    RUNNING = "running"
    WAIT_MEM = "wait_mem"      # blocking transaction in the pipeline
    WAIT_WB = "wait_wb"        # write buffer full, store stalled
    WAIT_TX = "wait_tx"        # streaming a TIE message out
    WAIT_MSG = "wait_msg"      # MPI-style receive pending
    WAIT_REQ = "wait_req"      # control-token receive pending
    WAIT_LOCK = "wait_lock"    # lock denied, backing off and retrying
    WAIT_FENCE = "wait_fence"  # draining all outstanding memory traffic
    DONE = "done"

    def __init__(self, value: str) -> None:
        #: The state's cycle-counter key, pre-built so a state change
        #: builds no f-string — and an attribute of the member rather than
        #: a dict keyed by it: a plain Enum's ``__hash__`` is a Python
        #: function.
        self.cycles_key = f"cycles_{value}"


# Members as module constants, for the reason given in repro.noc.packet.
(_RUNNING, _WAIT_MEM, _WAIT_WB, _WAIT_TX, _WAIT_MSG, _WAIT_REQ, _WAIT_LOCK,
 _WAIT_FENCE, _DONE) = CoreState

#: Pre-built counter keys, so blocking ops never build f-strings on the
#: per-cycle path.
_OPS_TAG_KEY = {tag: f"ops_{tag}" for tag in ("uload", "lock", "unlock")}
#: The receive ops, blocking and polling: (stream channel, counter key).
_RECV_OPS = {
    "recv": (UNICAST, "ops_recv"), "mrecv": (MCAST, "ops_mrecv"),
    "trecv": (UNICAST, "ops_trecv"), "tmrecv": (MCAST, "ops_tmrecv"),
}

#: The hot op counters ``_execute`` and the TX phase batch as plain ints:
#: (attribute, counter key), in the order a read of ``stats`` folds them.
_BATCHED_COUNTERS = (
    ("_n_compute", "ops_compute"), ("_n_compute_cycles", "compute_cycles"),
    ("_n_load_hit", "ops_load_hit"), ("_n_load_miss", "ops_load_miss"),
    ("_n_store_wt", "ops_store_wt"), ("_n_store_hit", "ops_store_hit"),
    ("_n_store_miss", "ops_store_miss"), ("_n_lmem", "ops_lmem"),
    ("_n_credit_wait", "credit_wait_cycles"),
)

#: What the interpreter executes when the program generator is exhausted;
#: matched by identity, so no program can yield it.
_PROGRAM_END = ("end",)


class _Job:
    """One queued memory-pipeline transaction."""

    __slots__ = ("txn", "tag", "not_before")

    def __init__(self, txn: MemTransaction, tag: str, not_before: int = 0) -> None:
        self.txn = txn
        self.tag = tag  # 'refill' | 'evict' | 'posted' | 'uload' | 'lock' | 'unlock'
        self.not_before = not_before


class ProcessorNode(Component):
    """A worker tile: executes one program against the full memory system."""

    # Every attribute of the tile's own, in the order __init__ sets them
    # (the order the state reader, and so a report, lists them): 50 of
    # them, past the 29 that CPython keeps inline before it gives an
    # instance a real dict (the layout rule of repro.kernel.component).
    __slots__ = (
        "rank", "node_id", "ports", "cache", "write_buffer_depth",
        "write_buffer_stalls", "bridge", "arbiter", "tie", "scratchpad",
        "map", "cost", "lock_retry_backoff", "recv_overhead", "events",
        "dma", "reliability", "state", "_state_since", "_ready_at",
        "_send_value", "_pending_op", "_jobs", "_active_job", "_n_posted",
        "_wait_msg", "_pending_req_flit", "_last_op", "_quiet_until",
        "_acted_at", "_rx_items", "_credit_items", "_check_access",
        "_cache_lookup", "_line_bytes", "_write_back", "_shared_end",
        "_own_base", "_own_end", "_program_send", "_outer_send",
        *(attribute for attribute, __ in _BATCHED_COUNTERS),
    )

    def __init__(
        self,
        rank: int,
        ports: NodePorts,
        cache: L1Cache,
        write_buffer_depth: int,
        bridge: Pif2NocBridge,
        arbiter: NocAccessArbiter,
        tie: TieInterface,
        scratchpad: Scratchpad,
        memory_map: MemoryMap,
        cost: FpCostModel,
        lock_retry_backoff: int = 16,
        recv_overhead: int = 2,
        events: EventLog | None = None,
        dma: "DmaTxEngine | None" = None,
        reliability: "ReliabilityAgent | None" = None,
    ) -> None:
        super().__init__(f"pe[{rank}]")
        self.rank = rank
        self.node_id = ports.node
        self.ports = ports
        ports.eject.owner = self
        self.cache = cache
        #: The write buffer is the pipeline's own posted jobs: at most
        #: this many queued or in flight, the next posted store stalls the
        #: core (depth 1 is the unbuffered machine, for ablation).
        self.write_buffer_depth = write_buffer_depth
        self.write_buffer_stalls = 0
        self.bridge = bridge
        self.arbiter = arbiter
        self.tie = tie
        self.scratchpad = scratchpad
        self.map = memory_map
        self.cost = cost
        self.lock_retry_backoff = lock_retry_backoff
        self.recv_overhead = recv_overhead
        #: Where ``note`` ops land (the system's log; a private one when
        #: the node is built standalone).
        self.events = events if events is not None else EventLog()
        #: Optional DMA/collective TX engine (None = seed behaviour).
        self.dma = dma
        #: Reliability agent (fault plan active only): NACK/probe timers.
        self.reliability = reliability

        self.state = _DONE
        self._state_since = 0
        self._ready_at = 0
        self._send_value: object = None
        self._pending_op: tuple | None = None
        self._jobs: deque[_Job] = deque()
        self._active_job: _Job | None = None
        self._n_posted = 0  # posted writes in _jobs or active
        #: Pending blocking receive: (the stream awaited, n_words).
        self._wait_msg: tuple[ReceiveStream, int] | None = None
        self._pending_req_flit: Flit | None = None
        self._last_op: tuple | None = None
        #: The quiet horizon (module docstring): steps before this cycle
        #: that find no flit, an empty arbiter and a free injection slot
        #: repeat the step that wrote it.  0: nothing is proven.
        self._quiet_until = 0
        #: The last cycle on which the TX phase ran or the core executed
        #: or resumed — "did anything run after this step's tick".
        self._acted_at = -1
        # Hot-path bindings: the RX queue (a deque) and the deque behind
        # the TIE credit queue are stable objects, so step() can test them
        # without attribute chains or property calls.
        self._rx_items = ports.eject.queue
        self._credit_items = tie.pending_credits._items
        # The same for the interpreter's core-local arms, which run once
        # per op rather than once per step.
        self._check_access = memory_map.check_access
        self._cache_lookup = cache.lookup
        self._line_bytes = cache.line_bytes
        self._write_back = cache.policy is WRITE_BACK
        # Where a double needs no check_access: shared (from 0) or this
        # tile's own.
        own = memory_map.privates[rank]
        self._shared_end = memory_map.shared.size
        self._own_base, self._own_end = own.base, own.base + own.size
        #: ``send`` of the loaded program generator (None: none loaded),
        #: or of a double's word ops while they run (``_outer_send``: the
        #: program's meanwhile).
        self._program_send: typing.Callable | None = None
        self._outer_send: typing.Callable | None = None
        # Hot op counters, batched as plain ints and folded into the
        # CounterSet whenever it is read.  The last one,
        # _n_credit_wait, is the WAIT_TX cycles where the TIE data stream
        # was credit-gated (the peer's window exhausted), splitting
        # cycles_wait_tx into credit_stall vs plain streaming for the
        # cycle ledger.
        for attribute, __ in _BATCHED_COUNTERS:
            setattr(self, attribute, 0)
        self.stats.batch(self, _BATCHED_COUNTERS)

    # -- program control -------------------------------------------------------

    def load_program(self, program: Generator) -> None:
        """Install a fresh program generator and make the core runnable."""
        if self._program_send is not None and self.state is not _DONE:
            raise ProgramError(f"{self.name}: program already running")
        if not hasattr(program, "send"):
            # Accept any iterable of ops (ops that need no results).
            program = (op for op in program)
        self._program_send = program.send
        self._outer_send = None
        self.state = _RUNNING
        self._send_value = None
        self._pending_op = None
        self._ready_at = 0
        self._quiet_until = 0
        self.wake()

    @property
    def done(self) -> bool:
        return self.state is _DONE

    @property
    def drained(self) -> bool:
        """Program finished and every queued side effect has left the node."""
        return (
            self.state is _DONE
            and not self._jobs
            and self._active_job is None
            and self.bridge.idle
            and not self.tie.tx_busy
            and self._pending_req_flit is None
            and self.tie.pending_credits.empty
            and not self.tie.pending_retx
            and (self.dma is None or not (self.dma.busy or self.dma.rx_busy))
            and not self.arbiter.has_pending
            and not self._rx_items
        )

    # -- clocked behaviour ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        if cycle < self._quiet_until:
            # Inside the quiet horizon: with no flit to take, an empty
            # arbiter and a free injection slot, the full step would only
            # repeat the one that wrote the horizon — by state, a
            # credit-stalled cycle, or the sleep it ended in.
            arbiter = self.arbiter
            if not (self._rx_items or arbiter.n_pending
                    or arbiter.port.pending is not None):
                state = self.state
                if state is _WAIT_TX:
                    self.tie._n_credit_stall_cycles += 1
                    self._n_credit_wait += 1
                elif state is _RUNNING:
                    self.sleep(until=self._ready_at)
                else:
                    self.sleep(until=cycle + self.reliability.poll_interval)
                return
            self._quiet_until = 0
        # The six phases of the module docstring, with each phase's cheap
        # emptiness guard inlined so an idle phase costs one attribute test.
        bridge = self.bridge
        tie = self.tie
        dma = self.dma
        if self._rx_items:
            # Phase 1: one flit off the ejection port, demuxed on its type.
            flit = self._rx_items.popleft()
            if flit.ptype >= MESSAGE:  # MESSAGE or MULTICAST
                tie.accept(flit)
            elif bridge.on_reply(flit, cycle) is not None:
                self._job_completed(cycle)
        if self.reliability is not None:
            # After RX (freshly arrived words clear starvation before any
            # timer can expire on them), before TX (tokens armed this
            # cycle can leave this cycle).
            self.reliability.tick(cycle)
        if dma is not None and dma._rx is not None:
            # Reduction assist: combine one arrived double per cycle.
            dma.rx_pump()
        if self._jobs and self._active_job is None and bridge.idle:
            job = self._jobs[0]
            if job.not_before <= cycle:
                self._jobs.popleft()
                self._active_job = job
                bridge.start(job.txn, cycle)
        arbiter = self.arbiter
        outgoing = bridge._outgoing
        if outgoing and arbiter.offer_memory(outgoing[0]):
            bridge.output_sent()
        dma_busy = dma is not None and dma.busy
        if (
            dma_busy
            or self._credit_items
            or self._pending_req_flit is not None
            or tie.tx is not None
            or tie.pending_retx
        ):
            self._phase_tie_tx(cycle, dma_busy)
        # Core phase (inlined _phase_core).
        if self.state is not _RUNNING:
            self._try_unblock(cycle)
        tie.rx_event = False
        if self.state is _RUNNING and self._ready_at <= cycle:
            self._execute(cycle)
        # Arbiter grant: skipped when it has no flit and no busy port to
        # account for (tick would be side-effect free).
        if arbiter.port.pending is not None or arbiter.n_pending:
            arbiter.tick()
        # A running core that will be ready within a cycle stays awake,
        # whatever else is pending; only otherwise is sleep worth weighing.
        if self.state is not _RUNNING or self._ready_at > cycle + 1:
            self._phase_sleep(cycle)

    # 4 -------------------------------------------------------------------------------

    def _phase_tie_tx(self, cycle: int, dma_busy: bool) -> None:
        self._acted_at = cycle
        tie = self.tie
        offer = self.arbiter.offer_message
        if self._credit_items:
            # Flow-control credits first: they unblock a stalled peer and
            # are generated by the TIE hardware, not the program.
            if offer(tie.credit_flit()):
                tie.credit_sent()
            return
        if tie.pending_retx:
            # NACK-requested retransmissions next: the peer's stream is
            # stalled on these words (reliable-delivery mode only).
            tie.send_retx(UNICAST, tie.pending_retx, tie.stats, offer)
            return
        if self._pending_req_flit is not None:
            if offer(self._pending_req_flit):
                self._pending_req_flit = None
                if self.state is _WAIT_TX:
                    self._resume(cycle, cost=1)
            return
        if dma_busy:
            # The engine drains autonomously: classify waiting NACKs,
            # activate the head descriptor when none is streaming, and
            # offer a flit, one per cycle; the TIE's stream goes only on
            # a cycle the engine had none to go.
            dma = self.dma
            if dma._active is None or tie.mcast_nacks:
                dma.pump()
            if dma.send(offer) != GATED:
                return
        if tie.tx is None:
            return
        sent = tie.send(offer)
        if self.state is not _WAIT_TX:
            return
        if sent == GATED:
            # A blocked core is credit-stalled this cycle.
            self._n_credit_wait += 1
            if not (dma_busy or self.bridge._outgoing):
                # This arm wrote nothing the tick reads and a core
                # blocked in WAIT_TX neither executes nor resumes:
                # until a credit arrives the stall repeats.
                self._quiet_until = self._tick_horizon()
        elif sent == FINISHED:
            self._resume(cycle, cost=1)

    # 5 -------------------------------------------------------------------------------

    def _try_unblock(self, cycle: int) -> None:
        state = self.state
        if state is _WAIT_MSG and self.tie.rx_event:
            if self._wait_msg is None:
                raise ProtocolError(f"{self.name}: WAIT_MSG with no receive")
            stream, n_words = self._wait_msg
            if stream.available(n_words):
                self._wait_msg = None
                self._send_value = stream.take(n_words)
                self._resume(cycle, cost=self.recv_overhead + n_words)
        elif state is _WAIT_REQ and self.tie.requests:
            self._send_value = self.tie.requests.pop()
            self._resume(cycle, cost=2)
        elif state is _WAIT_FENCE and self._pipeline_empty():
            self._resume(cycle, cost=1)

    def _pipeline_empty(self) -> bool:
        return not self._jobs and self._active_job is None and self.bridge.idle

    def _resume(self, cycle: int, cost: int) -> None:
        self._acted_at = cycle
        self._change_state(_RUNNING, cycle)
        self._ready_at = cycle + cost

    def _change_state(self, new_state: CoreState, cycle: int) -> None:
        old = self.state
        if old is not new_state:
            self.stats.inc(old.cycles_key, cycle - self._state_since)
            self._state_since = cycle
            self.state = new_state

    # -- the operation interpreter ----------------------------------------------------

    def _execute(self, cycle: int) -> None:
        # ``now`` is the core's own clock: it runs ahead of ``cycle`` over
        # core-local ops (module docstring), up to the kernel's horizon.
        # The first op that is not core-local is parked for its exact
        # issue cycle, and the tile waits for it as for a long compute.
        now = cycle
        self._acted_at = cycle
        # A reliability agent's tick runs on every stepped cycle at which
        # it can act (not inside the quiet horizon) and arms its timers
        # from those cycles, so such a tile keeps the per-cycle schedule.
        horizon = cycle if self.reliability is not None else self.sim.horizon
        while True:
            op = self._pending_op
            if op is None:
                try:
                    op = self._program_send(self._send_value)
                except StopIteration as stop:
                    if self._outer_send is None:
                        op = _PROGRAM_END
                    else:  # a double's word ops are done
                        self._program_send, self._outer_send = self._outer_send, None
                        self._send_value = stop.value
                        continue
                self._send_value = None
            else:
                self._pending_op = None
            self._last_op = op
            code = op[0]
            cost = 0
            if code == "compute":
                cost = op[1]
                if cost <= 0:
                    continue
                self._n_compute += 1
                self._n_compute_cycles += cost
            elif code in {"load_double", "store_double"}:
                # Both words at once (module docstring).  One set test here
                # and one for the lmem pair: an op that leaves the core passes
                # as many tests as before doubles, each a hash probe.
                addr = op[1]
                line = None
                if (now + 2 < horizon and not addr & 7
                        and (0 <= addr < self._shared_end
                             or self._own_base <= addr < self._own_end)):
                    if code == "load_double":
                        line = self._cache_lookup(addr, False, False, 2)
                    elif self._write_back:
                        line = self._cache_lookup(addr, True, False, 2)
                if line is None:  # word by word, through the arms below
                    self._outer_send = self._program_send
                    self._program_send = word_ops(op).send
                    continue
                words = line.words
                index = (addr % self._line_bytes) >> 2
                if code == "load_double":
                    self._send_value = words_to_float(words[index], words[index + 1])
                    self._n_load_hit += 2
                else:
                    words[index], words[index + 1] = float_to_words(op[2])
                    line.dirty = True
                    self._n_store_hit += 2
                cost = 2
            elif code == "load":
                addr = op[1]
                self._check_access(self.rank, addr)
                # A miss found ahead of the clock is counted when it issues.
                line = self._cache_lookup(addr, False, now == cycle)
                if line is not None:
                    self._send_value = line.words[(addr % self._line_bytes) >> 2]
                    self._n_load_hit += 1
                    cost = 1
            elif code == "store":
                if self._write_back:
                    addr = op[1]
                    self._check_access(self.rank, addr)
                    line = self._cache_lookup(addr, True, now == cycle)
                    if line is not None:
                        line.words[(addr % self._line_bytes) >> 2] = op[2]
                        line.dirty = True
                        self._n_store_hit += 1
                        cost = 1
            elif code in {"lmem_read", "lmem_write"}:
                if code == "lmem_read":
                    self._send_value = self.scratchpad.read_word(op[1])
                else:
                    self.scratchpad.write_word(op[1], op[2])
                self._n_lmem += 1
                cost = Scratchpad.ACCESS_CYCLES
            if cost:
                now += cost
                if now < horizon:
                    continue
                break
            if now > cycle:
                self._pending_op = op
                break
            # From here on: ops that leave the core, on their issue cycle.
            if code == "load":  # a miss: the hits were taken above
                self._n_load_miss += 1
                self._start_refill(op[1], cycle, op)
                return
            if code == "store":
                self._op_store(cycle, op)
                return
            if code == "send":
                self.tie.begin_send(op[1], op[2])
                self._change_state(_WAIT_TX, cycle)
                self.stats.inc("ops_send")
                return
            if code == "recv" or code == "mrecv":
                # Blocking receive from node op[1]'s unicast stream
                # (mrecv: from its multicast stream).
                self._op_recv(cycle, op)
                return
            if code == "sendreq":
                self._pending_req_flit = self.tie.make_request_flit(op[1], op[2])
                self._change_state(_WAIT_TX, cycle)
                self.stats.inc("ops_sendreq")
                return
            if code == "recvreq":
                if self.tie.requests:
                    self._send_value = self.tie.requests.pop()
                    self._ready_at = cycle + 2
                else:
                    self._change_state(_WAIT_REQ, cycle)
                self.stats.inc("ops_recvreq")
                return
            if code == "isend":
                # Non-blocking send: write the TX descriptor and keep
                # running; the TIE streams the flits autonomously (the
                # node stays awake while tie.tx is pending).  The program
                # must confirm ("txdone",) before starting another send.
                self.tie.begin_send(op[1], op[2])
                self._ready_at = cycle + 2
                self.stats.inc("ops_isend")
                return
            if code == "txdone":
                # One-cycle poll of the TIE TX status register.
                self._send_value = self.tie.tx is None
                self._ready_at = cycle + 1
                self.stats.inc("ops_txdone")
                return
            if code == "trecv" or code == "tmrecv":
                # Non-blocking receive (tmrecv: from the multicast stream):
                # complete at the same cost as a blocking recv when the
                # words are ready, else report None after a one-cycle poll.
                channel, counter = _RECV_OPS[code]
                stream = self.tie.stream_from(op[1], channel)
                n_words = op[2]
                if stream.available(n_words):
                    self._send_value = stream.take(n_words)
                    self._ready_at = cycle + self.recv_overhead + n_words
                else:
                    self._send_value = None
                    self._ready_at = cycle + 1
                self.stats.inc(counter)
                return
            if code == "qmcast":
                # Post a descriptor (destination bitmask) on the DMA TX
                # queue; result False means the queue was full (retry
                # later).  The core keeps running either way — the queue
                # retires the one-descriptor serialization of isend.
                self._send_value = self._dma().post_multicast(op[1], op[2])
                self._ready_at = cycle + 2
                self.stats.inc("ops_qmcast")
                return
            if code == "qreduce":
                # Post an accumulate-on-receive descriptor: the engine
                # combines the multicast stream from node op[1] into the
                # accumulator op[2] as flits arrive.  False = engine
                # busy with a previous reduce (retry later).
                self._send_value = self._dma().post_reduce(op[1], op[2], op[3])
                self._ready_at = cycle + 2
                self.stats.inc("ops_qreduce")
                return
            if code == "qrpoll":
                # One-cycle poll of the reduce-status register; returns
                # the finished accumulator (clearing the descriptor) or
                # None while the engine is still combining.
                self._send_value = self._dma().rx_result_poll()
                self._ready_at = cycle + 1
                self.stats.inc("ops_qrpoll")
                return
            if code == "uload":
                self._enqueue_blocking(
                    MemTransaction(SINGLE_READ, self._check(op[1])),
                    "uload", cycle,
                )
                return
            if code == "ustore":
                if self._post_write(op[1], [op[2]], SINGLE_WRITE, op):
                    self._ready_at = cycle + 1
                    self.stats.inc("ops_ustore")
                else:
                    self._change_state(_WAIT_WB, cycle)
                return
            if code == "flush":
                self._op_flush(cycle, op)
                return
            if code == "inval":
                self.cache.invalidate_line(op[1])
                self._ready_at = cycle + 1
                self.stats.inc("ops_inval")
                return
            if code == "fence":
                if self._pipeline_empty():
                    self._ready_at = cycle + 1
                else:
                    self._change_state(_WAIT_FENCE, cycle)
                return
            if code == "lock":
                self._enqueue_blocking(
                    MemTransaction(LOCK, self._check(op[1])),
                    "lock", cycle,
                )
                return
            if code == "unlock":
                self._enqueue_blocking(
                    MemTransaction(UNLOCK, self._check(op[1])),
                    "unlock", cycle,
                )
                return
            if code == "note":
                if len(op) == 2:  # ctx.note(label): a user mark
                    self.events.emit(cycle, self.node_id, MARK, op[1])
                else:
                    self.events.emit(cycle, self.node_id, op[1], op[2], op[3])
                continue
            if op is _PROGRAM_END:
                self._change_state(_DONE, cycle)
                return
            raise ProgramError(f"{self.name}: unknown operation {op!r}")
        self._ready_at = now

    def _dma(self) -> "DmaTxEngine":
        if self.dma is None:
            raise ProgramError(
                f"{self.name}: no DMA/TX-queue engine on this tile; set "
                f"dma_tx_queue_depth >= 1 on the SystemConfig"
            )
        return self.dma

    # -- memory operations ---------------------------------------------------------------

    def _check(self, addr: int) -> int:
        self.map.check_access(self.rank, addr)
        return addr

    def _op_store(self, cycle: int, op: tuple) -> None:
        """A store that leaves the core (``_execute`` takes write-back hits)."""
        __, addr, value = op
        if self._write_back:
            # A miss: write-allocate.
            self._n_store_miss += 1
            self._start_refill(addr, cycle, ("store_fill", addr, value))
            return
        self.map.check_access(self.rank, addr)
        line = self.cache.lookup(addr, is_write=True)
        if not self._post_write(addr, [value], SINGLE_WRITE, op):
            self._change_state(_WAIT_WB, cycle)
            return
        if line is not None:
            # Keep the cached copy coherent with memory; stays clean.
            self.cache.write_word(addr, value, mark_dirty=False)
        self._ready_at = cycle + 1
        self._n_store_wt += 1

    def _start_refill(self, addr: int, cycle: int, continuation: tuple) -> None:
        line_addr = self.cache.line_addr(addr)
        needs_wb, victim_addr, victim_words = self.cache.victim_for(addr)
        if needs_wb:
            self._jobs.append(
                _Job(
                    MemTransaction(
                        BLOCK_WRITE, victim_addr,
                        write_words=victim_words, blocking=False,
                    ),
                    "evict",
                )
            )
        self._jobs.append(
            _Job(MemTransaction(BLOCK_READ, line_addr), "refill")
        )
        self._pending_op = continuation
        self._change_state(_WAIT_MEM, cycle)

    def _post_write(
        self, addr: int, words: list[int], kind: PacketType, op: tuple
    ) -> bool:
        """Queue a posted write against write-buffer capacity."""
        self._check(addr)
        if self._n_posted >= self.write_buffer_depth:
            self.write_buffer_stalls += 1
            self._pending_op = op
            return False
        self._n_posted += 1
        self._jobs.append(
            _Job(MemTransaction(kind, addr, write_words=words, blocking=False),
                 "posted")
        )
        return True

    def _op_flush(self, cycle: int, op: tuple) -> None:
        addr = op[1]
        result = self.cache.writeback_line(addr)
        if result is None:
            self._ready_at = cycle + 1
            self.stats.inc("ops_flush_clean")
            return
        line_addr, words = result
        if not self._post_write(line_addr, words, BLOCK_WRITE, op):
            # Roll the dirty bit back: the flush never happened this cycle.
            # (writeback_line just returned this line's words: it is resident.)
            self.cache.probe(addr).dirty = True
            self._change_state(_WAIT_WB, cycle)
            return
        self._ready_at = cycle + 1
        self.stats.inc("ops_flush_dirty")

    def _op_recv(self, cycle: int, op: tuple) -> None:
        code, src_node, n_words = op
        channel, counter = _RECV_OPS[code]
        stream = self.tie.stream_from(src_node, channel)
        if stream.available(n_words):
            self._send_value = stream.take(n_words)
            self._ready_at = cycle + self.recv_overhead + n_words
        else:
            self._wait_msg = (stream, n_words)
            self._change_state(_WAIT_MSG, cycle)
        self.stats.inc(counter)

    def _enqueue_blocking(self, txn: MemTransaction, tag: str, cycle: int) -> None:
        self._jobs.append(_Job(txn, tag))
        self._change_state(_WAIT_MEM if tag != "lock" else _WAIT_LOCK, cycle)
        self.stats.inc(_OPS_TAG_KEY[tag])

    # -- job completion ----------------------------------------------------------------------

    def _job_completed(self, cycle: int) -> None:
        job = self._active_job
        if job is None:
            raise ProtocolError(f"{self.name}: bridge completed with no active job")
        self._active_job = None
        tag = job.tag
        if tag == "posted":
            self._n_posted -= 1
            if self.state is _WAIT_WB:
                # Retry the stalled op next cycle; _pending_op still holds it.
                self._resume(cycle, cost=1)
            return
        if tag == "evict":
            return
        if tag == "refill":
            self.cache.install(job.txn.addr, job.txn.read_words)
            if self._pending_op is None:
                raise ProtocolError(f"{self.name}: refill with no op waiting on it")
            code = self._pending_op[0]
            if code == "store_fill":
                __, addr, value = self._pending_op
                self._pending_op = None
                self.cache.write_word(addr, value, mark_dirty=True)
                self._resume(cycle, cost=1)
            else:
                # Re-execute the load; it is now a guaranteed hit.
                self._resume(cycle, cost=0)
            return
        if tag == "uload":
            self._send_value = job.txn.read_words[0]
            self._resume(cycle, cost=1)
            return
        if tag == "lock":
            if job.txn.granted:
                self._resume(cycle, cost=1)
            else:
                self.stats.inc("lock_retries")
                self._jobs.append(
                    _Job(
                        MemTransaction(LOCK, job.txn.addr),
                        "lock",
                        not_before=cycle + self.lock_retry_backoff,
                    )
                )
            return
        if tag == "unlock":
            self._resume(cycle, cost=1)
            return
        raise ProtocolError(f"unknown job tag {tag!r}")

    # -- sleep decision --------------------------------------------------------------------------

    def _phase_sleep(self, cycle: int) -> None:
        if self._rx_items or self.bridge._outgoing or self.arbiter.n_pending:
            return
        if (
            self.tie.tx is not None
            or self._pending_req_flit is not None
            or self._credit_items
            or self.tie.pending_retx
        ):
            return
        if self.dma is not None and (self.dma.busy or self.dma.rx_can_progress()):
            return
        if self._active_job is None and self._jobs:
            head = self._jobs[0]
            if head.not_before <= cycle + 1:
                return
            if self.state is _WAIT_LOCK and self.bridge.idle:
                self.sleep(until=head.not_before)  # nothing but backoff
            return
        if self.state is _RUNNING:
            if self._ready_at > cycle + 1:
                if self._acted_at != cycle:
                    # An early wake that found nothing to do: so will
                    # every other one before the core is due.
                    self._quiet_until = min(
                        self._tick_horizon(), self._ready_at - 1
                    )
                self.sleep(until=self._ready_at)
            return
        if self.state is _WAIT_FENCE and self._pipeline_empty():
            return
        # Blocked on an external event (reply flit, message, token) or done.
        if self.reliability is not None and self.reliability.wants_poll:
            # A starvation timer is armed: wake to check it even if no
            # flit ever arrives (the very loss being timed out on).
            if self._acted_at != cycle:
                self._quiet_until = self._tick_horizon()
            self.sleep(until=cycle + self.reliability.poll_interval)
            return
        self.sleep()

    def _tick_horizon(self) -> int:
        """The quiet horizon a step may write once it has shown that
        nothing ran after its reliability tick: the first cycle at which
        a tick can act on streams and windows left as they are (never,
        without an agent).  0 — no horizon — while a reduction-assist
        descriptor is live: the assist reads its stream after every tick.
        """
        dma = self.dma
        if dma is not None and dma._rx is not None:
            return 0
        agent = self.reliability
        return NEVER if agent is None else agent.next_deadline()

    # -- diagnostics --------------------------------------------------------------------------------

    def cycle_ledger(self, end_cycle: int) -> dict[str, int]:
        """Exact per-state cycle partition of ``[0, end_cycle)``.

        Every ``_change_state`` adds ``cycle - _state_since`` to the old
        state's counter and moves ``_state_since``; folding the residual
        ``end_cycle - _state_since`` into the *current* state therefore
        makes the partition sum to ``end_cycle`` bit-exactly, by
        construction.  WAIT_TX is split into ``credit_stall`` (cycles the
        TIE data stream was credit-gated while the core blocked) and
        ``tx_stream`` (the rest: streaming / arbiter / port time) using
        the always-on ``credit_wait_cycles`` counter.  Read-only: never
        changes timing.
        """
        raw = {state: self.stats.get(state.cycles_key) for state in CoreState}
        raw[self.state] += end_cycle - self._state_since
        credit = min(self.stats.get("credit_wait_cycles"), raw[_WAIT_TX])
        return {
            "compute": raw[_RUNNING],
            "mem_stall": raw[_WAIT_MEM] + raw[_WAIT_WB] + raw[_WAIT_FENCE],
            "credit_stall": credit,
            "tx_stream": raw[_WAIT_TX] - credit,
            "wait_msg": raw[_WAIT_MSG],
            "barrier_spin": raw[_WAIT_REQ],
            "lock_spin": raw[_WAIT_LOCK],
            "idle": raw[_DONE],
        }
