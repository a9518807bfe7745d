"""The per-tile DMA/collective TX engine.

The engine sits between the core and the TIE/arbiter message path:

* the core *posts* :class:`TxDescriptor` records into a bounded queue
  (the ``qmcast`` operation, a couple of cycles each) and keeps running
  — the queue retires the one-slot serialization the blocking
  ``send``/``isend`` path imposes;
* every cycle the owning node pumps the engine: the head descriptor is
  activated (it becomes the engine's outgoing message, streaming out of
  the group's send window), and one call, :meth:`DmaTxEngine.send`,
  offers the current flit to the arbiter's message class — an owed
  retransmission first — and advances.

There is one descriptor kind, a group send: every descriptor carries a
destination bitmask, and a send to a single tile is a mask with one bit
set (a group of one).  In **multicast mode** the engine emits one
MULTICAST flit per payload word with ``dst = -1`` and the mask attached;
the fabric replicates it along the deterministic tree, so a P-way
broadcast costs one injection per word.  In **unicast
fallback mode** (``noc_multicast=False``, for networks whose flit format
cannot carry the mask, and as the equivalence baseline) the same
descriptor expands into one ordinary-routed MULTICAST flit per (member,
word) pair — identical receive-side behaviour (same streams, same slots,
same credits), P-1 times the injections.

Sequence space: all multicasts from one tile share a single slot counter,
which is only coherent while every one of them targets the same group —
the hardware analogue of a multicast group register.  The first
``post_multicast`` fixes the group.  The register may be **rewritten**
(a descriptor with a different mask) once the queue has drained and
every current member's credits are quiescent; until then the post is
simply refused (``False``, retry like a full queue).  Re-registration
reuses the reverse ack path: each *new* member is sent a SYNC token
carrying the current stream slot's phase (its receive stream
fast-forwards into the shared sequence space) and answers with a
SYNC_ACK; the engine
holds the re-registered descriptor until every new member acked.
Software must ensure all members consumed their prior multicast data
before re-registering (a barrier suffices) — an unconsumed stream
refuses the sync loudly.

Flow control is the TIE's one stream protocol (:mod:`repro.pe.tie`): the
group's shared sequence space is a :class:`~repro.pe.tie.SendWindow` with
more than one member — every member credits completed slots back on its
own, and a flit the fabric replicates is gated on all of them, i.e. on
the *slowest* (ack aggregation), bounding the reorder span group-wide.
In reliable mode a NACKed word is retransmitted *unicast* to the member
that asked: the rest of the group already has it, and replaying the tree
would duplicate it group-wide.

**Reduction assist** (the RX half): an *accumulate-on-receive*
descriptor, posted with the ``qreduce`` operation, hands the engine a
local accumulator and a source; as that source's multicast stream
arrives, the engine combines each double into the accumulator — one
element per cycle, accumulator-first, the exact
:func:`~repro.empi.collectives.combine_scalar` order — so a reduction's
combine overlaps flit arrival instead of serializing through processor
ops.  The core collects the finished accumulator with a one-cycle
``qrpoll`` status read (the accumulator lives in local data memory,
where the engine combined it in place).
"""

from __future__ import annotations

import typing
from collections import deque
from collections.abc import Callable, Iterator

from repro.empi.collectives import ReduceOp, combine_scalar
from repro.errors import ProtocolError
from repro.kernel.simulator import Simulator
from repro.kernel.stats import CounterSet
from repro.kernel.trace import DMA_ACTIVATE, DMA_POST, DMA_RETIRE, EventLog
from repro.mem.values import words_to_float
from repro.noc.flit import MULTICAST_DST, Flit
from repro.pe.tie import (
    CREDIT_WINDOW,
    FINISHED,
    GATED,
    MCAST,
    MCAST_SYNC_WORD,
    REFUSED,
    SENT,
    OutgoingMessage,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pe.tie import TieInterface


def mask_members(mask: int) -> Iterator[int]:
    """Node indices of a destination bitmask, ascending."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


class TxDescriptor:
    """One queued transmit descriptor: a send to the group ``mask``."""

    __slots__ = ("mask", "words", "uid")

    def __init__(self, mask: int, words: list[int]) -> None:
        self.mask = mask    # destination bitmask
        self.words = words
        self.uid = 0        # event-log lifecycle id (0 when off)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TxDescriptor ->mask={self.mask:#x} {len(self.words)}w>"


class _RxReduce:
    """State of the accumulate-on-receive descriptor being combined.

    ``acc`` is the caller's accumulator (combined in place, element by
    element, as the source's multicast stream arrives); ``index`` is the
    next element to combine.
    """

    __slots__ = ("src_node", "acc", "op", "index")

    def __init__(self, src_node: int, acc: list[float], op: ReduceOp) -> None:
        self.src_node = src_node
        self.acc = acc
        self.op = op
        self.index = 0

    @property
    def done(self) -> bool:
        return self.index >= len(self.acc)


class DmaTxEngine:
    """Descriptor queue + multicast streamer for one tile."""

    def __init__(
        self,
        tie: "TieInterface",
        n_nodes: int,
        depth: int,
        multicast: bool = True,
        events: EventLog | None = None,
        clock: Simulator | None = None,
    ) -> None:
        if depth < 1:
            raise ProtocolError(f"DMA TX queue depth must be >= 1, got {depth}")
        self.tie = tie
        self.node_id = tie.node_id
        self.n_nodes = n_nodes
        self.depth = depth
        self.multicast = multicast
        self.queue: deque[TxDescriptor] = deque()
        self.group_mask = 0          # the multicast group register
        #: The group's shared sequence space, credits and replay buffer.
        self.window = tie.window_for(MULTICAST_DST)
        self._active: OutgoingMessage | None = None
        #: New members whose SYNC_ACK must arrive before the first
        #: descriptor of a re-registered group may stream.
        self._sync_pending: frozenset[int] = frozenset()
        #: The accumulate-on-receive (reduction assist) descriptor:
        #: at most one active, its result held until qrpoll collects it.
        self._rx: _RxReduce | None = None
        self._rx_done = False
        #: Reliable-delivery mode only: NACK-requested retransmissions
        #: awaiting a TX slot, (member, slot, word).
        self.pending_retx: deque[tuple[int, int, int]] = deque()
        self.stats = CounterSet(f"dma[{tie.node_id}]")
        # Per-flit hot counters, batched like the TIE's and folded into
        # the CounterSet whenever it is read.
        self._n_flits_sent = 0
        self._n_credit_stalls = 0
        self._n_reduced = 0
        self.stats.batch(self, (
            ("_n_flits_sent", "flits_sent"),
            ("_n_credit_stalls", "credit_stall_cycles"),
            ("_n_reduced", "values_reduced"),
        ))
        #: Where descriptor lifecycles (post/activate/retire) are logged,
        #: stamped with ``clock.cycle`` — the posting methods take no
        #: cycle argument.  None keeps the hot path at a single attribute
        #: check (same pattern as faults).
        self.events = events
        self.clock = clock
        self._desc_uid = 0
        self._rx_uid = 0

    # -- core-facing (descriptor posting) ------------------------------------

    @property
    def busy(self) -> bool:
        """True while any descriptor is queued or streaming, or while a
        retransmission is owed (queued, or still undrained in the TIE's
        multicast-NACK inbox — the owning node must keep pumping until
        it is served)."""
        return (
            bool(self.queue)
            or self._active is not None
            or bool(self.pending_retx)
            or bool(self.tie.mcast_nacks)
        )

    def post_multicast(self, mask: int, words: list[int]) -> bool:
        """Queue a multicast descriptor; False when the queue is full."""
        if not (0 < mask < (1 << self.n_nodes)):
            raise ProtocolError(
                f"dma[{self.node_id}]: multicast mask {mask:#x} out of range "
                f"for {self.n_nodes} nodes"
            )
        if mask & (1 << self.node_id):
            raise ProtocolError(
                f"dma[{self.node_id}]: multicast mask includes this tile"
            )
        if not words:
            raise ProtocolError("empty DMA descriptor")
        if len(self.queue) >= self.depth:
            self.stats.inc("queue_full_rejects")
            return False
        if mask != self.group_mask:
            # (Re)write the group register.  The shared sequence space only
            # stays coherent if nothing is mid-stream: refuse (retry like
            # a full queue) until the queue is drained and every current
            # member's credits are quiescent, then sync the new members.
            if self.group_mask and not self._reregister_group(mask):
                self.stats.inc("group_reregister_stalls")
                return False
            self.group_mask = mask
            self.window.members = tuple(mask_members(mask))
        desc = TxDescriptor(mask, list(words))
        if self.events is not None:
            desc.uid = self._open_span(f"mcast {mask:#x} {len(words)}w")
        self.queue.append(desc)
        self.stats.inc("multicast_descriptors")
        return True

    def _emit(self, kind: str, uid: int, name: str | None = None) -> None:
        self.events.emit(self.clock.cycle, self.node_id, kind, uid, name)

    def _open_span(self, name: str) -> int:
        """Log a descriptor's post; returns its lifecycle uid."""
        self._desc_uid += 1
        self._emit(DMA_POST, self._desc_uid, name)
        return self._desc_uid

    def _reregister_group(self, mask: int) -> bool:
        """Switch the group register to ``mask`` if quiescent; else False.

        Quiescent = no descriptor queued or streaming, and every
        current member has credited all completed credit windows (the
        at-most-one-partial-window tail is the software's to order with a
        barrier; see the module docstring).  On success the *new* members
        are sent SYNC tokens over the reverse ack path and the engine
        holds streaming until all of them answered.
        """
        if self._active is not None or self.queue:
            return False
        slot = self.window.next_slot
        credited = self.window.credited
        for member in self.window.members:
            if credited.get(member, 0) + CREDIT_WINDOW <= slot:
                return False
        new_members = []
        for member in mask_members(mask & ~self.group_mask):
            new_members.append(member)
            # The member's stream fast-forwards to the slot's phase (the
            # SYNC carries slot mod SEQ_WINDOW — only phase alignment
            # matters to the seq-offset scatter and the credit windows);
            # treat all earlier slots as credited on this side so flow
            # control resumes cleanly.
            credited[member] = slot
            self.tie.mcast_sync_acks.discard(member)
            self.tie.pending_credits.push(
                (member, MCAST_SYNC_WORD | (slot & self.tie.sync_slot_mask))
            )
        self._sync_pending = frozenset(new_members)
        self.stats.inc("group_reregisters")
        return True

    # -- core-facing (reduction assist / accumulate-on-receive) --------------

    @property
    def rx_busy(self) -> bool:
        """True while a qreduce descriptor is combining or holds a result."""
        return self._rx is not None

    def post_reduce(
        self, src_node: int, values: list[float], op: ReduceOp | str
    ) -> bool:
        """Post an accumulate-on-receive descriptor; False while one is live.

        The engine will combine the next ``2 * len(values)`` words of the
        multicast stream from ``src_node`` into ``values`` (element by
        element, accumulator first) as they arrive.  The previous
        descriptor's result must have been collected with ``qrpoll``
        before a new one is accepted.
        """
        op = ReduceOp.parse(op)
        if not (0 <= src_node < self.n_nodes) or src_node == self.node_id:
            raise ProtocolError(
                f"dma[{self.node_id}]: bad reduce source {src_node}"
            )
        if not values:
            raise ProtocolError("empty reduce descriptor")
        if self._rx is not None:
            self.stats.inc("reduce_busy_rejects")
            return False
        self._rx = _RxReduce(src_node, list(values), op)
        self._rx_done = False
        if self.events is not None:
            self._rx_uid = self._open_span(
                f"qreduce<-{src_node} {len(values)}v"
            )
        self.stats.inc("reduce_descriptors")
        return True

    def rx_pump(self) -> None:
        """Combine at most one arrived double into the accumulator.

        Called once per cycle by the owning node: the assist datapath
        retires one element per cycle, which matches the stream's best
        arrival rate (two 32-bit flits per double), so combining never
        lags arrival in steady state.
        """
        rx = self._rx
        if rx is None or self._rx_done:
            return
        stream = self.tie.rx[MCAST].get(rx.src_node)
        if stream is None or not stream.available(2):
            return
        low, high = stream.take(2)
        index = rx.index
        rx.acc[index] = combine_scalar(
            rx.acc[index], words_to_float(low, high), rx.op
        )
        rx.index = index + 1
        self._n_reduced += 1
        if rx.done:
            self._rx_done = True

    def rx_can_progress(self) -> bool:
        """True when a pending qreduce has arrived words to combine."""
        rx = self._rx
        if rx is None or self._rx_done:
            return False
        stream = self.tie.rx[MCAST].get(rx.src_node)
        return stream is not None and stream.available(2)

    def rx_result_poll(self) -> list[float] | None:
        """The finished accumulator, or None while still combining.

        Collecting the result clears the descriptor — the accumulator was
        combined in place in local data memory, so this is a one-cycle
        status read, not a copy.
        """
        if self._rx is None or not self._rx_done:
            return None
        result = self._rx.acc
        self._rx = None
        self._rx_done = False
        if self._rx_uid:
            self._emit(DMA_RETIRE, self._rx_uid)
            self._rx_uid = 0
        return result

    # -- node-facing (per-cycle drain) ---------------------------------------

    def pump(self) -> None:
        """Activate the head descriptor when the previous one finished."""
        nacks = self.tie.mcast_nacks
        while nacks:
            member, slot16 = nacks.popleft()
            self.stats.inc("mcast_nacks_seen")
            verdict = self.window.nack(member, slot16, self.pending_retx)
            if verdict != "serve":
                self.stats.inc("mcast_nacks_" + verdict)
        if self._active is not None or not self.queue:
            return
        if self._sync_pending:
            # A re-registered group streams only after every new member
            # acknowledged its SYNC (their streams now stand at our slot).
            if not self._sync_pending <= self.tie.mcast_sync_acks:
                self._n_credit_stalls += 1
                return
            self._sync_pending = frozenset()
        head = self.queue.popleft()
        self._active = self._activate(head)
        if head.uid:
            self._active.uid = head.uid
            self._emit(DMA_ACTIVATE, head.uid)

    def _activate(self, desc: TxDescriptor) -> OutgoingMessage:
        tie = self.tie
        base = self.window.reserve(len(desc.words))
        members = tuple(mask_members(desc.mask))
        if self.multicast:
            entries = tie.data_flits(
                MCAST, MULTICAST_DST, desc.words, base, members, desc.mask
            )
        else:
            # Unicast fallback: same slots per member, member-major order
            # (mirroring the software linear broadcast's send order), each
            # copy gated on its own member.
            entries = [
                entry for member in members
                for entry in tie.data_flits(
                    MCAST, member, desc.words, base, (member,)
                )
            ]
        self.stats.inc("messages_started")
        return OutgoingMessage(self.window, entries)

    def send(self, offer: Callable[[Flit], bool]) -> int:
        """Offer this cycle's flit to ``offer`` (the arbiter's message
        class): an owed retransmission — its NACKing member is stalled on
        it, and it passed the gate when first emitted — else the streaming
        descriptor's (``GATED`` also when nothing streams)."""
        if self.pending_retx:
            return SENT if self.tie.send_retx(
                MCAST, self.pending_retx, self.stats, offer
            ) else REFUSED
        active = self._active
        if active is None:
            return GATED
        sent = active.send(offer)
        if sent == GATED:
            self._n_credit_stalls += 1
        elif sent != REFUSED:
            self._n_flits_sent += 1
            if sent == FINISHED:
                self._active = None
                if active.uid:
                    self._emit(DMA_RETIRE, active.uid)
        return sent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DmaTxEngine node {self.node_id} depth={self.depth} "
            f"queued={len(self.queue)} active={self._active is not None}>"
        )
