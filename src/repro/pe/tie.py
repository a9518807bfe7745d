"""TIE message-passing interface and its one stream protocol.

Paper Section II-B: each Xtensa gains TIE ports that behave as FIFO
queues directly attached to the register file.  On send, hardware stamps
every flit with a sequence number (a counter) and resolves the destination
through a small LUT.  On receive, the sequence number is used as an offset
into the processor's local data memory so no sorting buffer is needed for
out-of-order flits, and a double buffer gives single-cycle reads; *request*
flits (the SUB-TYPE the paper reserves to distinguish requests from generic
data) land in a separate control queue and carry the flow control.

Every word stream between two tiles runs one protocol, written once:

* the **receiver half** is a :class:`ReceiveStream` per ``(channel,
  source)``: the seq-offset scatter with its two-window reorder tolerance,
  returning a credit token per CREDIT_WINDOW contiguously completed slots;
* the **sender half** is a :class:`SendWindow`: the slot counter, the
  floor each member has credited back, the one credit gate, and — when a
  fault plan makes delivery *reliable* — the retransmit buffer and the
  NACK classifier.  An :class:`OutgoingMessage` is a message streaming
  out of a window, one flit per cycle, each through one call,
  :meth:`OutgoingMessage.send`: read the entry, apply the credit gate,
  offer the flit to the arbiter, advance — answering ``SENT``,
  ``FINISHED``, ``REFUSED`` or ``GATED``.

There are two **channels**.  UNICAST: a window per destination, member
tuple ``(dst,)``, fed by the core's ``send``/``isend`` alone.  MCAST: one
window for the tile's multicast group, driven by the DMA engine
(:mod:`repro.dma.engine`, every descriptor); its gate waits for the slowest
member — the ack aggregation a hardware collective engine performs — and
its receive streams are kept apart because a group shares one sequence
space, which no per-destination numbering can agree with.  A token names
its channel in bit 16 of its marker word and counters keep a ``""`` /
``"mcast_"`` prefix; nothing else distinguishes the two.

To add a token kind: a marker constant below, one branch in
:meth:`TieInterface._accept_token`, and — if something must *decide* when
the token is owed — a timer in :mod:`repro.pe.reliability`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.errors import ProtocolError
from repro.kernel.fifo import Fifo
from repro.kernel.stats import CounterSet
from repro.noc.flit import MULTICAST_DST, Flit
from repro.noc.packet import MESSAGE, MSG_DATA, MSG_REQUEST, MSG_RETX, MULTICAST

#: Sequence numbers are 4 bits on the wire.
SEQ_WINDOW = 16
#: Double buffering tolerates reordering across two windows.
MAX_SPAN = 2 * SEQ_WINDOW

#: Credit-based flow control over the request segment.  A sender may have
#: at most CREDIT_LIMIT unacknowledged stream slots in flight per
#: member; the receiving TIE returns one credit token per
#: CREDIT_WINDOW contiguously completed slots.  This bounds the reorder
#: span seen by the receiver strictly below SEQ_WINDOW, so two flits
#: carrying the same 4-bit sequence number can never coexist in the
#: network — the condition the seq-offset scatter needs to be unambiguous.
#: (This is the flow-control role the paper assigns to request packets.)
CREDIT_WINDOW = 8
CREDIT_LIMIT = 16

#: The two stream channels; a channel indexes ``TieInterface.rx``, the
#: packet type of its data flits and the counter prefix, and is bit 16
#: (CHANNEL_BIT) of every credit / NACK / probe marker.
UNICAST, MCAST = 0, 1
CHANNEL_BIT = 0x0001_0000
_PTYPE = (MESSAGE, MULTICAST)
_PREFIX = ("", "mcast_")

#: Marker word carried by credit tokens; disjoint from eMPI token encoding.
CREDIT_WORD = 0x7F00_0000
#: Multicast group (re-)registration handshake, riding the same reverse
#: request path as the credits.  A SYNC token carries the *phase* of the
#: sender's multicast stream slot (slot mod SEQ_WINDOW — the receiver's
#: absolute numbering is local bookkeeping, and CREDIT_WINDOW divides
#: SEQ_WINDOW, so phase alignment is all the seq-offset scatter and the
#: credit windows need); a *new* group member fast-forwards its receive
#: stream to that phase and answers with a SYNC_ACK, and the sending
#: engine holds the first post-re-registration descriptor until every
#: new member acked.
MCAST_SYNC_WORD = 0x7F02_0000
MCAST_SYNC_ACK_WORD = 0x7F03_0000

#: Reliable-delivery control tokens (fault layer only; same 0x7Fxx_0000
#: marker family, still disjoint from eMPI token encoding).  In reliable
#: mode every credit/sync/NACK token carries an *absolute* stream slot
#: (mod 2^16) in its low 16 bits instead of being a bare increment — a
#: lost or duplicated token then merely delays the window instead of
#: corrupting it, and an idempotent probe can always resynchronize.
#: NACKs name the receiver's lowest missing slot; probes ask the peer to
#: re-send its current credit value after a suspicious stall.
NACK_WORD = 0x7F04_0000
CREDIT_PROBE_WORD = 0x7F06_0000
#: High-half marker match for the whole token family.
MARKER_MASK = 0xFFFF_0000
#: Low-half payload of reliable-mode tokens (absolute slot mod 2^16).
SLOT_MASK = 0xFFFF

#: What one :meth:`OutgoingMessage.send` did with the current flit.
SENT, FINISHED, REFUSED, GATED = range(4)


class ReceiveStream:
    """In-order word stream reassembled from out-of-order flits.

    Slot accounting is continuous across messages: flit *k* of the stream
    carries sequence number ``k % 16``, and arrivals are scattered into
    their slot on receipt (the hardware writes ``base + seq`` in local
    memory).  ``lowest_missing`` is the front of the current window; a
    sequence number that would land more than two windows ahead means the
    hardware double buffer would have been overrun, which is a protocol
    error rather than something to hide.
    """

    __slots__ = ("slots", "lowest_missing", "consumed", "credited_upto",
                 "wide", "wanted")

    def __init__(self) -> None:
        self.slots: dict[int, int] = {}
        self.lowest_missing = 0
        self.consumed = 0
        #: Slots for which credit tokens have already been issued.
        self.credited_upto = 0
        #: Reliable mode: flits carry 16-bit sequence numbers, so arrivals
        #: place exactly and duplicates (retransmit + late original) are
        #: detected and dropped instead of aliasing into a future frame.
        self.wide = False
        #: Highest slot a consumer has asked :meth:`available` for and not
        #: yet received — the reliability agent's starvation signal for
        #: tail loss (nothing buffered, but someone is waiting).
        self.wanted = 0

    def insert(self, seq: int, word: int) -> bool:
        """Scatter one arrival; False = duplicate, silently discarded.

        Duplicates can only occur in reliable mode (a retransmit racing
        its delayed original); the fault-free 4-bit protocol never
        duplicates, so the narrow path keeps treating a same-slot arrival
        as the double-buffer overrun it would be in hardware.
        """
        if self.wide:
            delta = (seq - self.lowest_missing) & SLOT_MASK
            if delta >= 0x8000:
                return False  # behind the front: a stale duplicate
            slot = self.lowest_missing + delta
            if slot in self.slots:
                return False  # duplicate of a buffered arrival
            if delta >= MAX_SPAN:
                raise ProtocolError(
                    f"reorder span exceeded double buffer: seq={seq}, "
                    f"oldest missing slot {self.lowest_missing}"
                )
        else:
            if not (0 <= seq < SEQ_WINDOW):
                raise ProtocolError(
                    f"sequence number {seq} exceeds 4-bit field"
                )
            # The two hardware buffers are frame-aligned: frame k covers
            # slots [16k, 16k+16).  A flit lands in the frame of the
            # oldest missing slot unless that slot already arrived, in
            # which case it belongs to the next frame (the second buffer).
            frame_base = (self.lowest_missing // SEQ_WINDOW) * SEQ_WINDOW
            slot = frame_base + seq
            if slot < self.lowest_missing or slot in self.slots:
                slot += SEQ_WINDOW
            if slot in self.slots:
                raise ProtocolError(
                    f"reorder span exceeded double buffer: seq={seq}, "
                    f"oldest missing slot {self.lowest_missing}"
                )
        self.slots[slot] = word
        while self.lowest_missing in self.slots:
            self.lowest_missing += 1
        return True

    def available(self, n_words: int) -> bool:
        """True when the next ``n_words`` of the stream are contiguous."""
        need = self.consumed + n_words
        if need <= self.lowest_missing:
            return True
        if need > self.wanted:
            self.wanted = need
        return False

    def take(self, n_words: int) -> list[int]:
        if not self.available(n_words):
            raise ProtocolError(f"take({n_words}) on incomplete stream")
        start = self.consumed
        self.consumed = start + n_words
        return [self.slots.pop(start + i) for i in range(n_words)]

    @property
    def pending_words(self) -> int:
        return self.lowest_missing - self.consumed

    def realign(self, phase: int) -> None:
        """Fast-forward an idle stream to slot phase ``phase`` (group sync).

        Used when this stream's sender re-registers its multicast group
        with this node as a new member: the shared sequence space stands
        at some slot with ``slot % SEQ_WINDOW == phase``, so the empty
        stream jumps forward to the nearest slot of that phase.  Only the
        phase matters — this stream's absolute numbering is local
        bookkeeping, and credit windows divide the sequence window, so
        windowed crediting stays aligned with the sender's counters.  A
        stream holding unconsumed or out-of-order words cannot be moved —
        that data would be lost, which is a protocol violation, not a
        detail to hide.
        """
        span = SLOT_MASK + 1 if self.wide else SEQ_WINDOW
        if not (0 <= phase < span):
            raise ProtocolError(f"sync phase {phase} exceeds the seq window")
        if self.slots or self.consumed != self.lowest_missing:
            raise ProtocolError(
                f"multicast stream re-synced with {self.pending_words} "
                f"unconsumed word(s) and {len(self.slots)} buffered flit(s)"
            )
        base = self.lowest_missing
        base += (phase - base) % span
        self.lowest_missing = base
        self.consumed = base
        self.credited_upto = base


class SendWindow:
    """Sender half of one stream: slot counter, credit floors, replay buffer.

    ``members`` are the nodes the stream goes to — ``(dst,)`` for a
    unicast stream, the registered group for the tile's multicast stream.
    Every member credits slots back on its own: ``credited[member]`` is
    the absolute floor it has confirmed (a fault-free token advances it
    by CREDIT_WINDOW; a reliable token folds its absolute value in,
    forward-only, so stale and duplicated tokens are no-ops).  A flit may
    leave while its slot lies below ``floor + budget`` of every member it
    is going to.  Reliable mode (``retx_slots`` not None) keeps every emitted
    word in ``retx``, to serve NACKs, until the *slowest* floor passes it.
    """

    __slots__ = ("members", "credit_plan", "retx_slots", "next_slot",
                 "credited", "retx", "queued")

    def __init__(self, members: tuple[int, ...], credit_plan: dict[int, int],
                 retx_slots: int | None = None) -> None:
        self.members = members
        self.credit_plan = credit_plan
        self.retx_slots = retx_slots
        #: The slot the hardware sequence counter stamps next.
        self.next_slot = 0
        self.credited: dict[int, int] = {}
        #: slot -> word: emitted, not yet credited by every member.
        self.retx: dict[int, int] = {}
        #: (member, slot) retransmissions queued and not yet sent.
        self.queued: set[tuple[int, int]] = set()

    def reserve(self, n_slots: int) -> int:
        """Claim the next ``n_slots`` stream slots; returns the first."""
        base = self.next_slot
        self.next_slot = base + n_slots
        return base

    def blocked_by(self, slot: int, members: tuple[int, ...]) -> tuple:
        """The credit gate: those of ``members`` whose window does not
        admit ``slot`` yet (empty = the flit may go).

        A member's *budget* — the slots it may be sent beyond its credited
        floor — is its credit-plan window, capped in reliable mode by the
        retransmit SRAM: every emitted-but-unretired slot must stay
        replayable.  :meth:`OutgoingMessage.send` applies it inline.
        """
        credited = self.credited
        plan = self.credit_plan
        cap = self.retx_slots
        blocked = ()
        for member in members:
            budget = plan.get(member, CREDIT_LIMIT)
            if cap is not None and cap < budget:
                budget = cap
            if slot >= credited.get(member, 0) + budget:
                blocked += (member,)
        return blocked

    def credit(self, member: int, value: int) -> None:
        """Fold one credit token from ``member`` into its floor."""
        prev = self.credited.get(member, 0)
        if self.retx_slots is None:
            self.credited[member] = prev + CREDIT_WINDOW
            return
        delta = (value - prev) & SLOT_MASK
        if not delta or delta >= 0x8000:
            return  # signed mod-2^16: a reordered or replayed stale token
        self.credited[member] = prev + delta
        floor = min((self.credited.get(m, 0) for m in self.members), default=0)
        for slot in [s for s in self.retx if s < floor]:
            del self.retx[slot]

    def nack(self, member: int, slot16: int,
             queue: deque[tuple[int, int, int]]) -> str:
        """Classify a NACK for ``member``'s lowest missing slot.

        ``"serve"``: replayable; ``(member, slot, word)`` joins ``queue``
        unless that retransmission is already waiting there.  ``"retired"``:
        behind the member's floor — a stale NACK that crossed the credit
        repairing it in flight.  ``"ignored"``: unsent or unknown slot
        (e.g. the token itself was corrupted); harmless, the receiver
        keeps NACKing with backoff until a well-formed one lands.
        """
        floor = self.credited.get(member, 0)
        delta = (slot16 - floor) & SLOT_MASK
        if delta >= 0x8000:
            return "retired"
        slot = floor + delta
        if slot >= self.next_slot or slot not in self.retx:
            return "ignored"
        if (member, slot) not in self.queued:
            self.queued.add((member, slot))
            queue.append((member, slot, self.retx[slot]))
        return "serve"


class OutgoingMessage:
    """A message streaming out of a :class:`SendWindow`, a flit per cycle.

    ``entries`` is a flat list of ``(slot, gate, flit)``: ``gate`` names
    the members whose credit must admit ``slot`` before that flit goes —
    ``(dst,)`` on a unicast stream, the whole group for a flit the fabric
    replicates, ``(member,)`` per copy when a multicast descriptor is
    expanded into unicast-routed flits.
    """

    __slots__ = ("window", "entries", "index", "uid")

    def __init__(self, window: SendWindow, entries: list) -> None:
        self.window = window
        self.entries = entries
        self.index = 0
        self.uid = 0  # event-log lifecycle id of a DMA descriptor (0 = off)

    def send(self, offer: Callable[[Flit], bool]) -> int:
        """Offer the current flit to ``offer`` (the arbiter's message
        class) unless :meth:`SendWindow.blocked_by`'s gate, inline, holds
        it; advance past it once taken.  The replay buffer records a word
        at emission, so it holds only emitted-but-unretired slots."""
        slot, gate, flit = self.entries[self.index]
        window = self.window
        credited = window.credited
        plan = window.credit_plan
        cap = window.retx_slots
        for member in gate:
            budget = plan.get(member, CREDIT_LIMIT)
            if cap is not None and cap < budget:
                budget = cap
            if slot >= credited.get(member, 0) + budget:
                return GATED
        if not offer(flit):
            return REFUSED
        if cap is not None:
            window.retx[slot] = flit.data
        self.index += 1
        return FINISHED if self.index == len(self.entries) else SENT


class TieInterface:
    """Send/receive state of one PE's TIE ports."""

    def __init__(
        self,
        node_id: int,
        request_queue_depth: int = 64,
        credit_plan: dict[int, int] | None = None,
    ) -> None:
        self.node_id = node_id
        #: Topology-aware per-peer credit windows (slots in flight before
        #: the first credit token).  The system builder fills this from
        #: the topology's path latencies so high-RTT peers (across
        #: inter-chiplet links) get windows covering their round trip;
        #: peers absent from the plan use the hardware default
        #: CREDIT_LIMIT, which also caps every entry on the 4-bit wire
        #: format — only wide (reliable) sequence numbers track more.
        self.credit_plan: dict[int, int] = credit_plan or {}
        #: Receive streams, ``rx[channel][source node]``.
        self.rx: tuple[dict[int, ReceiveStream], ...] = ({}, {})
        #: Send windows by destination (see :meth:`window_for`).
        self.windows: dict[int, SendWindow] = {}
        self.requests: Fifo[tuple[int, int]] = Fifo(
            request_queue_depth, name=f"tie[{node_id}].req"
        )
        #: Members that acknowledged a group-sync token (sender side);
        #: the DMA engine holds re-registered descriptors on this set.
        self.mcast_sync_acks: set[int] = set()
        #: Tokens owed to peers (credits, sync, NACKs, probes):
        #: (destination node, token word).
        self.pending_credits: Fifo[tuple[int, int]] = Fifo(
            None, name=f"tie[{node_id}].cr"
        )
        #: The core's data message in flight (see :meth:`send`).
        self.tx: OutgoingMessage | None = None
        #: Reliable-delivery mode (fault layer active): 16-bit wire
        #: sequence numbers, absolute credit tokens, and a bounded
        #: retransmit buffer serving NACKs.  Streams and windows read
        #: this and ``retx_slots`` when they are first used.
        self.reliable = False
        #: Depth of the modelled retransmit SRAM: emitted-but-unretired
        #: slots per member.
        self.retx_slots = CREDIT_LIMIT
        #: :class:`repro.faults.FaultInjector` when reliable (credit-drop
        #: hooks + fault accounting); None otherwise.
        self.faults = None
        #: NACK-requested unicast retransmissions awaiting a TX slot:
        #: (dst, slot, word), drained by the node at one flit per cycle.
        self.pending_retx: deque[tuple[int, int, int]] = deque()
        #: Multicast NACKs for the DMA engine, which owns the group's
        #: retransmit queue: (member, slot mod 2^16).
        self.mcast_nacks: deque[tuple[int, int]] = deque()
        self.stats = CounterSet(f"tie[{node_id}]")
        #: Set when a flit arrives; the node uses it to re-check waiters.
        self.rx_event = False
        # Per-flit hot counters, batched as plain ints and folded into the
        # CounterSet whenever it is read — the same pattern as the core's.
        self._n_data_flits_sent = 0
        self._n_flits_received = 0
        self._n_credit_stall_cycles = 0
        self._n_mcast_flits_received = 0
        self.stats.batch(self, (
            ("_n_data_flits_sent", "data_flits_sent"),
            ("_n_flits_received", "data_flits_received"),
            ("_n_credit_stall_cycles", "credit_stall_cycles"),
            ("_n_mcast_flits_received", "mcast_flits_received"),
        ))

    def stream_from(self, src_node: int,
                    channel: int = UNICAST) -> ReceiveStream:
        stream = self.rx[channel].get(src_node)
        if stream is None:
            stream = self.rx[channel][src_node] = ReceiveStream()
            stream.wide = self.reliable
        return stream

    def window_for(self, dst: int) -> SendWindow:
        """The send window toward ``dst``: a peer node, or MULTICAST_DST
        for the group the DMA engine registers the members of."""
        window = self.windows.get(dst)
        if window is None:
            window = self.windows[dst] = SendWindow(
                () if dst == MULTICAST_DST else (dst,), self.credit_plan,
                self.retx_slots if self.reliable else None,
            )
        return window

    @property
    def sync_slot_mask(self) -> int:
        """Low bits of a multicast SYNC token: the slot phase (mod
        SEQ_WINDOW), or the whole wide slot when reliable."""
        return SLOT_MASK if self.reliable else SEQ_WINDOW - 1

    # -- RX ------------------------------------------------------------------

    def accept(self, flit: Flit) -> None:
        """Sort an incoming flit into its data stream or the token decoder."""
        channel = flit.ptype - MESSAGE  # MULTICAST follows it
        if channel not in (UNICAST, MCAST):
            raise ProtocolError(f"TIE got non-message flit {flit!r}")
        self.rx_event = True
        if flit.subtype == MSG_REQUEST:
            self._accept_token(flit.src, flit.data)
            return
        stream = (self.rx[channel].get(flit.src)
                  or self.stream_from(flit.src, channel))
        if not stream.insert(flit.seq, flit.data):
            self.stats.inc("duplicate_flits_dropped")
            return
        if channel:
            self._n_mcast_flits_received += 1
        else:
            self._n_flits_received += 1
        # Flow control: one credit per CREDIT_WINDOW contiguous slots.
        while stream.lowest_missing >= stream.credited_upto + CREDIT_WINDOW:
            stream.credited_upto += CREDIT_WINDOW
            self._owe_credit(flit.src, channel, stream.credited_upto)
            self.stats.inc(_PREFIX[channel] + "credits_sent")

    def _owe_credit(self, dst: int, channel: int, upto: int) -> None:
        word = CREDIT_WORD | (channel * CHANNEL_BIT)
        if self.reliable:
            word |= upto & SLOT_MASK
        self.pending_credits.push((dst, word))

    def _accept_token(self, src: int, word: int) -> None:
        """Decode one request-segment token.

        Dispatch is on the marker half-word, whose bit 16 names the
        channel.  In the fault-free protocol every token is exactly its
        marker (low bits zero); reliable mode carries an absolute slot in
        the low bits, which the masked match makes transparent here.
        Anything outside the family is a program-level request.
        """
        marker = word & MARKER_MASK
        channel = (marker // CHANNEL_BIT) & 1
        kind = marker & ~CHANNEL_BIT
        if kind == CREDIT_WORD:
            # The peer completed a window of our stream to it.
            if self.faults is not None and self.faults.eat_credit(
                self.node_id, src, channel
            ):
                return
            window = self.window_for(MULTICAST_DST if channel else src)
            window.credit(src, word & SLOT_MASK)
            self.stats.inc(_PREFIX[channel] + "credits_received")
        elif marker == MCAST_SYNC_WORD:
            # The peer re-registered its multicast group with this node
            # as a new member: align our stream to the phase of its
            # shared sequence space and ack on the reverse path.
            self.stream_from(src, MCAST).realign(word & self.sync_slot_mask)
            self.pending_credits.push((src, MCAST_SYNC_ACK_WORD))
            self.stats.inc("mcast_syncs_received")
        elif word == MCAST_SYNC_ACK_WORD:
            self.mcast_sync_acks.add(src)
            self.stats.inc("mcast_sync_acks_received")
        elif self.reliable and kind == NACK_WORD:
            self.stats.inc(_PREFIX[channel] + "nacks_received")
            if channel:
                self.mcast_nacks.append((src, word & SLOT_MASK))
                return
            verdict = self.window_for(src).nack(
                src, word & SLOT_MASK, self.pending_retx
            )
            if verdict != "serve":
                self.stats.inc("nacks_" + verdict)
        elif self.reliable and kind == CREDIT_PROBE_WORD:
            # Idempotent resync: re-issue our current credit value for
            # the probing sender's stream (a lost credit token deadlocks
            # its window otherwise).
            stream = self.rx[channel].get(src)
            self._owe_credit(
                src, channel, stream.credited_upto if stream is not None else 0
            )
            self.stats.inc(_PREFIX[channel] + "credit_probes_received")
        else:
            self.requests.push((src, word))
            self.stats.inc("requests_received")

    # -- TX ------------------------------------------------------------------

    def make_flit(self, channel: int, dst: int, subtype: int, seq: int,
                  word: int, burst: int = 1, mask: int = 0) -> Flit:
        """The one place a message-path flit is built, on either channel."""
        if channel and dst != MULTICAST_DST:
            mask = 1 << dst  # an ordinary-routed copy of a group's flit
        # Positional (dst, src, ptype, subtype, seq, burst, data, dst_mask):
        # keyword binding was a quarter of this function's cost.
        return Flit(dst, self.node_id, _PTYPE[channel], int(subtype), seq,
                    burst, word, mask)

    def data_flits(self, channel: int, dst: int, words: list[int], base: int,
                   gate: tuple[int, ...], mask: int = 0) -> list:
        """:class:`OutgoingMessage` entries carrying ``words`` in stream
        slots ``base``..., each flit gated on the members in ``gate``."""
        seq_mod = SLOT_MASK + 1 if self.reliable else SEQ_WINDOW
        total = len(words)
        # Logic packets group up to 4 flits; BURST tells the receiver
        # how many flits this flit's packet contains (2-bit field).
        return [
            (base + offset, gate, self.make_flit(
                channel, dst, MSG_DATA, (base + offset) % seq_mod,
                word, min(4, total - (offset // 4) * 4), mask,
            ))
            for offset, word in enumerate(words)
        ]

    @property
    def tx_busy(self) -> bool:
        return self.tx is not None

    def begin_send(self, dst_node: int, words: list[int]) -> None:
        """Start streaming a data message (one flit per cycle thereafter)."""
        if self.tx is not None:
            raise ProtocolError("TIE send started while a send is in flight")
        if not words:
            raise ProtocolError("empty message")
        window = self.window_for(dst_node)
        self.tx = OutgoingMessage(window, self.data_flits(
            UNICAST, dst_node, words, window.reserve(len(words)), (dst_node,),
        ))
        self.stats.inc("messages_sent")

    def send(self, offer: Callable[[Flit], bool]) -> int:
        """Offer the data stream's current flit (:meth:`OutgoingMessage.send`)
        and count what happened; the message is dropped once it finished."""
        sent = self.tx.send(offer)
        if sent == GATED:
            self._n_credit_stall_cycles += 1
        elif sent != REFUSED:
            self._n_data_flits_sent += 1
            if sent == FINISHED:
                self.tx = None
        return sent

    def make_request_flit(self, dst_node: int, word: int) -> Flit:
        """Build a single-flit control token for the request segment."""
        self.stats.inc("requests_sent")
        return self.make_flit(UNICAST, dst_node, MSG_REQUEST, 0, word)

    def credit_flit(self) -> Flit | None:
        """Next owed token, if any (drained by the node, 1/cycle)."""
        if self.pending_credits.empty:
            return None
        dst, word = self.pending_credits.peek()
        return self.make_flit(UNICAST, dst, MSG_REQUEST, 0, word)

    def credit_sent(self) -> None:
        self.pending_credits.pop()

    def send_retx(self, channel: int, queue: deque, stats: CounterSet,
                  offer: Callable[[Flit], bool]) -> bool:
        """Offer the head of a NACK-requested retransmission queue of
        ``(member, slot, word)`` — the TIE's unicast one or the DMA
        engine's group one — counting it into ``stats`` once it went."""
        member, slot, word = queue[0]
        if not offer(self.make_flit(
            channel, member, MSG_RETX, slot & SLOT_MASK, word
        )):
            return False
        queue.popleft()
        window = self.windows[MULTICAST_DST if channel else member]
        window.queued.discard((member, slot))
        stats.inc("retx_sent")
        return True
