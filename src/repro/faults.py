"""Deterministic, seeded fault injection for the MEDEA fabric.

The fault layer has two halves:

* :class:`FaultPlan` — a frozen, declarative description of what goes
  wrong: seeded transient drop/corrupt rates (optionally restricted to
  chosen links and a cycle window), permanently killed links, temporarily
  stalled switches, swallowed credit tokens, and the knobs of the recovery
  protocol (NACK timeout/backoff/retry budget, retransmit-buffer depth).
  It lives on :class:`~repro.system.config.SystemConfig` (``faults=``,
  default ``None`` — with it unset, no fault code runs and every committed
  golden cycle count is bit-identical).
* :class:`FaultInjector` — the per-system runtime: one seeded
  ``random.Random``, the current per-node output-port masks (kills and
  stalls remove bits symmetrically so the deflection invariant holds), the
  end-to-end checksum stamped at injection and checked at ejection, and
  the counters and FAULT events that make every fault observable and
  every run bit-reproducible from the same plan.

Fault model scope: transient drop/corrupt targets *stream data* flits
(MESSAGE/MULTICAST with a DATA or RETX subtype) — the traffic covered by
the NACK/retransmit protocol in :mod:`repro.pe.tie` and
:mod:`repro.dma.engine`.  Control tokens (credits, NACKs, barrier/eMPI
request words) and shared-memory transactions are exercised through the
declarative hooks (``drop_credits``/``drop_mcast_credits``, killed links,
stalls) and unit-level injection instead, since they carry no sequence
numbers to retransmit from; giving them an acknowledgement layer of their
own is a ROADMAP item.

Corruption flips one payload bit and leaves the checksum stale, so a
corrupted flit is detected at the ejection port and dropped there —
turning corruption into loss, which the retransmit protocol then repairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import inf

from repro.errors import ConfigError
from repro.kernel.stats import CounterSet
from repro.kernel.trace import FAULT, EventLog
from repro.noc.coords import DIRECTION_NAMES
from repro.noc.packet import MESSAGE, MSG_DATA, MSG_RETX
from repro.pe.tie import CREDIT_LIMIT, CREDIT_WINDOW


def link_name(node: int, direction: int) -> str:
    """Human label for the output link of ``node`` through port
    ``direction`` (a compass letter on grids; chiplet uplink ports and
    the IO hub's per-chiplet ports print as ``pN``)."""
    if 0 <= direction < len(DIRECTION_NAMES):
        return f"{node}->{DIRECTION_NAMES[direction]}"
    return f"{node}->p{direction}"


@dataclass(frozen=True)
class FaultPlan:
    """Seeded RNG rates plus a declarative fault schedule.

    Links are named ``(node, direction)`` — the *output* wire of ``node``
    through that port (0=N, 1=E, 2=S, 3=W on grids; a chiplet gateway's
    uplink is port ``GATEWAY_PORT`` and the IO hub's port ``c`` feeds
    chiplet ``c``).  Killed links die in both
    directions (the deflection router needs symmetric masks).  All
    schedule fields are tuples so the plan is hashable and its
    ``dataclasses.asdict`` form (used in DSE cache keys) is stable.
    """

    #: Seed for every random draw the injector makes.
    seed: int = 0
    #: Per-link-traversal probability that a stream-data flit is dropped.
    drop_rate: float = 0.0
    #: Per-link-traversal probability that one payload bit is flipped.
    corrupt_rate: float = 0.0
    #: Restrict transient drop/corrupt to these links (None = every link).
    fault_links: tuple[tuple[int, int], ...] | None = None
    #: Restrict transient drop/corrupt to cycles [start, end) (None = always).
    fault_window: tuple[int, int] | None = None
    #: Permanently killed links: (node, direction, from_cycle).
    dead_links: tuple[tuple[int, int, int], ...] = ()
    #: Stalled switches: (node, from_cycle, n_cycles) — the switch holds
    #: its input registers and accepts nothing for n_cycles.
    stalls: tuple[tuple[int, int, int], ...] = ()
    #: Swallow the first `count` unicast credit tokens arriving at `node`
    #: from `src`: (node, src, count).
    drop_credits: tuple[tuple[int, int, int], ...] = ()
    #: Same for multicast credit tokens (the DMA engine's TX gate).
    drop_mcast_credits: tuple[tuple[int, int, int], ...] = ()

    # -- recovery protocol knobs -------------------------------------------
    #: Cycles a receive stream may sit gapped/starved before a NACK.
    nack_timeout: int = 96
    #: Timeout multiplier per retry (exponential backoff).
    nack_backoff: int = 2
    #: NACK/probe attempts per stall before the agent gives up (the
    #: watchdog then turns the quiet system into a structured report).
    max_retries: int = 8
    #: Retransmit-buffer slots per stream; senders stall rather than
    #: overrun it.  16 (= the credit limit) makes it never the bottleneck;
    #: below 8 (= one credit window) no credit would ever come back.
    retx_slots: int = 16

    def __post_init__(self) -> None:
        # Coerce lists (convenient at call sites) into tuples so the plan
        # stays hashable and its cache-key repr is stable.
        for name in ("fault_links", "dead_links", "stalls",
                     "drop_credits", "drop_mcast_credits"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, tuple(tuple(item) for item in value)
                )
        if self.fault_window is not None:
            object.__setattr__(self, "fault_window", tuple(self.fault_window))

    def validate(self) -> None:
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ConfigError(f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if not (0.0 <= self.corrupt_rate <= 1.0):
            raise ConfigError(
                f"corrupt_rate must be in [0, 1], got {self.corrupt_rate}"
            )
        if self.drop_rate + self.corrupt_rate > 1.0:
            raise ConfigError("drop_rate + corrupt_rate must not exceed 1")
        if self.nack_timeout < 1:
            raise ConfigError("nack_timeout must be >= 1")
        if self.nack_backoff < 1:
            raise ConfigError("nack_backoff must be >= 1")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if not (CREDIT_WINDOW <= self.retx_slots <= CREDIT_LIMIT):
            raise ConfigError(
                f"retx_slots must be in [{CREDIT_WINDOW}, {CREDIT_LIMIT}], got "
                f"{self.retx_slots}: a receiver credits {CREDIT_WINDOW} slots at "
                f"a time, so a sender allowed fewer unretired slots never "
                f"completes the window that would free them, and "
                f"{CREDIT_LIMIT} is the stream credit limit"
            )
        for node, start, n_cycles in self.stalls:
            if n_cycles < 1 or start < 0:
                raise ConfigError(f"bad stall ({node}, {start}, {n_cycles})")
        if self.fault_window is not None:
            start, end = self.fault_window
            if end <= start:
                raise ConfigError(f"empty fault_window {self.fault_window}")


def _crc8_tables() -> list[tuple[int, ...]]:
    """The per-byte-position tables of :func:`_crc8`'s 11-byte layout.

    MSB first, zero initial value, no final XOR, so the CRC is linear:
    the CRC of a message is the XOR of each byte's CRC with every other
    byte zero, and entry ``b`` of position ``i``'s table is the CRC of
    ``b`` followed by ``10 - i`` zero bytes.
    """
    last = []  # one byte: the classic table
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc << 1 ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
        last.append(crc)
    tables = [tuple(last)]
    for _ in range(10):  # one more zero byte after each
        tables.append(tuple(last[crc] for crc in tables[-1]))
    return tables[::-1]


(_SRC_HI, _SRC_LO, _PTYPE, _SUBTYPE, _SEQ_HI, _SEQ_LO, _BURST,
 _DATA_3, _DATA_2, _DATA_1, _DATA_0) = _crc8_tables()


def _crc8(src: int, ptype: int, subtype: int, seq: int, burst: int,
          data: int) -> int:
    """CRC-8 (polynomial 0x07, Koopman 0x83) over the protocol + payload
    fields, laid out as 11 bytes, big-endian: src 2, ptype 1, subtype 1,
    seq 2, burst 1, data 4 — 88 bits, each field an unsigned integer of
    its width.

    Koopman's CRC tables give 0x83 Hamming distance 4 up to 119 data
    bits (P. Koopman and T. Chakravarty, "Cyclic Redundancy Code (CRC)
    Polynomial Selection for Embedded Networks", DSN 2004), so every 1-,
    2- and 3-bit error in these 88 bits is caught
    (``tests/noc/test_faults.py`` flips every 1- and 2-bit pattern).
    One lookup per byte position, XORed.  Deliberately excludes the
    routing fields (dst/mask): multicast replication rewrites those per
    branch, and the fault model never corrupts them.
    """
    return (
        _SRC_HI[src >> 8] ^ _SRC_LO[src & 0xFF] ^ _PTYPE[ptype]
        ^ _SUBTYPE[subtype] ^ _SEQ_HI[seq >> 8] ^ _SEQ_LO[seq & 0xFF]
        ^ _BURST[burst] ^ _DATA_3[data >> 24] ^ _DATA_2[data >> 16 & 0xFF]
        ^ _DATA_1[data >> 8 & 0xFF] ^ _DATA_0[data & 0xFF]
    )


#: Stream data — MESSAGE or MULTICAST flits of these subtypes — is what
#: transient faults and retransmission cover.
_STREAM_SUBTYPES = (MSG_DATA, MSG_RETX)


@dataclass
class _StallState:
    """Bookkeeping for one scheduled switch stall."""

    node: int
    end: int = 0
    saved: tuple[tuple[int, int], ...] = field(default_factory=tuple)


class FaultInjector:
    """Runtime fault state for one :class:`~repro.system.medea.MedeaSystem`.

    All mutation happens through the fabric's per-step calls
    (:meth:`advance`, :meth:`on_link`, :meth:`check_eject`) and the
    reliability layer's counters, in deterministic order, so two runs of
    the same plan replay bit-identically (compare their FAULT events).
    """

    def __init__(
        self, plan: FaultPlan, topology, events: EventLog | None = None
    ) -> None:
        plan.validate()
        self.plan = plan
        self.topology = topology
        self.rng = random.Random(plan.seed)
        self.counts = CounterSet("faults")
        #: Where FAULT events go (the system's log; a private one when
        #: the injector is built standalone).  They carry no run-local
        #: ids, so two runs of one plan compare equal.
        self.events = events if events is not None else EventLog()
        self._masks = list(topology.port_mask_table)
        self._killed = [0] * topology.n_nodes
        self._stalled: dict[int, _StallState] = {}
        self.masks_active = False
        self._transient = plan.drop_rate > 0.0 or plan.corrupt_rate > 0.0
        self._links = (
            None if plan.fault_links is None else set(plan.fault_links)
        )
        self._window = plan.fault_window
        #: Credit tokens still to swallow, by (node, src, stream channel).
        self._credit_eat = {
            (node, src, channel): count
            for channel, drops in enumerate(
                (plan.drop_credits, plan.drop_mcast_credits)
            )
            for node, src, count in drops
        }
        events: list[tuple[int, int, int, int]] = []
        for node, direction, cycle in plan.dead_links:
            self._check_link(node, direction)
            events.append((cycle, 0, node, direction))
        for node, start, n_cycles in plan.stalls:
            if not (0 <= node < topology.n_nodes):
                raise ConfigError(f"stall names unknown node {node}")
            events.append((start, 1, node, n_cycles))
        #: Schedule sorted by (cycle, kind, ...) — deterministic activation.
        self._events = sorted(events)
        self._next_event = 0
        #: The first cycle at which :meth:`advance` has anything to do: the
        #: next scheduled entry's or the earliest stall end (``inf``: never).
        self.next_due = self._events[0][0] if self._events else inf
        #: Streams whose recovery retries were exhausted (set by the
        #: reliability agents; surfaces in the watchdog report).
        self.gave_up: list[str] = []
        #: Mask-aware productive-direction table (same flat layout as
        #: ``topology.productive_table``), rebuilt on every permanent
        #: link kill; None until the first kill.  Without it, X-Y
        #: preference can steer the oldest flit into a cul-de-sac next
        #: to the dead link and livelock the whole fabric.
        self.productive_override: list[tuple[int, ...]] | None = None
        #: The router's multicast branch plans derived from *that* table;
        #: a fresh dict whenever the table is rebuilt.
        self.mcast_plans: dict[int, tuple] = {}

    def _check_link(self, node: int, direction: int) -> None:
        topology = self.topology
        if not (0 <= node < topology.n_nodes) or not (
            0 <= direction < topology.max_ports
        ):
            raise ConfigError(
                f"bad link ({node}, {direction}) for {topology.kind} "
                f"topology with {topology.n_nodes} nodes and "
                f"{topology.max_ports} ports per switch"
            )
        if topology.neighbor_table[node][direction] < 0:
            raise ConfigError(
                f"link {link_name(node, direction)} does not exist on "
                f"{topology.kind} topology"
            )

    # -- event logging ------------------------------------------------------

    def note(self, cycle: int, kind: str, node: int, *details) -> None:
        """Count fault ``kind`` and log it as a FAULT event at ``node``."""
        self.counts.inc(kind)
        self.events.emit(cycle, node, FAULT, kind, details)

    # -- scheduled events ---------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Activate schedule entries due by ``cycle`` and expire stalls.

        A no-op before ``next_due``, so the fabric calls it only from then
        on."""
        events = self._events
        while (self._next_event < len(events)
               and events[self._next_event][0] <= cycle):
            due, kind, node, arg = events[self._next_event]
            self._next_event += 1
            if kind == 0:
                self._kill_link(cycle, node, arg)
            else:
                self._stall_on(cycle, node, arg)
        if self._stalled:
            for node in [n for n, s in self._stalled.items() if cycle >= s.end]:
                self._stall_off(cycle, node)
        self.masks_active = bool(self._stalled) or any(self._killed)
        due = (events[self._next_event][0]
               if self._next_event < len(events) else inf)
        for stall in self._stalled.values():
            due = min(due, stall.end)
        self.next_due = due

    def _kill_link(self, cycle: int, node: int, direction: int) -> None:
        neighbor = self.topology.neighbor_table[node][direction]
        back = self.topology.reverse_port_table[node][direction]
        for end, out_dir in ((node, direction), (neighbor, back)):
            bit = 1 << out_dir
            self._killed[end] |= bit
            self._masks[end] &= ~bit
        self._recompute_productive()
        self.note(cycle, "link_killed", node, direction)

    def _recompute_productive(self) -> None:
        """Rebuild productive directions on the surviving (unkilled) graph.

        A real fault-tolerant NoC reprograms its routing tables when a
        link dies; the model's equivalent is
        :meth:`~repro.noc.topology.Topology.productive_override` — the
        same BFS that builds the pristine tables, run over the surviving
        links, so rerouting is topology-derived on every fabric shape
        (a dead inter-chiplet uplink reroutes through the IO hub exactly
        like a dead mesh link reroutes around the hole).  Stalls are
        transient and deliberately excluded — the saved masks restore
        themselves.  An unreachable destination gets an empty tuple:
        such flits deflect until the watchdog reports the partition.
        """
        self.productive_override = self.topology.productive_override(
            self._killed
        )
        self.mcast_plans = {}

    def _stall_on(self, cycle: int, node: int, n_cycles: int) -> None:
        state = _StallState(node, end=cycle + n_cycles)
        saved = []
        # Neighbours stop feeding the stalled switch (symmetric masks keep
        # the deflection invariant; the switch itself is simply skipped).
        for direction in self.topology.ports_table[node]:
            neighbor = self.topology.neighbor_table[node][direction]
            back = self.topology.reverse_port_table[node][direction]
            bit = 1 << back
            if self._masks[neighbor] & bit:
                self._masks[neighbor] &= ~bit
                saved.append((neighbor, back))
        state.saved = tuple(saved)
        self._stalled[node] = state
        self.masks_active = True
        self.note(cycle, "stall_on", node, n_cycles)

    def _stall_off(self, cycle: int, node: int) -> None:
        state = self._stalled.pop(node)
        for neighbor, direction in state.saved:
            bit = 1 << direction
            if not self._killed[neighbor] & bit:
                self._masks[neighbor] |= bit
        self.note(cycle, "stall_off", node)

    def stalled(self, node: int) -> bool:
        return node in self._stalled

    def out_mask(self, node: int) -> int:
        return self._masks[node]

    # -- transient link faults ----------------------------------------------

    def on_link(self, node: int, direction: int, flit, cycle: int) -> bool:
        """Filter one link traversal; returns False when the flit is lost.

        May flip a payload bit in place (leaving the checksum stale, so
        the corruption is caught — and the flit dropped — at ejection).
        """
        if (not self._transient or flit.ptype < MESSAGE
                or flit.subtype not in _STREAM_SUBTYPES):
            return True  # not stream data: no transient fault touches it
        if self._window is not None and not (
            self._window[0] <= cycle < self._window[1]
        ):
            return True
        if self._links is not None and (node, direction) not in self._links:
            return True
        plan = self.plan
        draw = self.rng.random()
        if draw < plan.drop_rate:
            self.note(cycle, "dropped", node, direction,
                      flit.src, flit.dst, flit.seq)
            return False
        if draw < plan.drop_rate + plan.corrupt_rate:
            flit.data ^= 1 << self.rng.randrange(32)
            self.note(cycle, "corrupted", node, direction,
                      flit.src, flit.dst, flit.seq)
        return True

    # -- end-to-end checksum -------------------------------------------------

    def stamp(self, flit) -> None:
        flit.crc = _crc8(flit.src, flit.ptype, flit.subtype,
                         flit.seq, flit.burst, flit.data)

    def check_eject(self, flit, node: int, cycle: int) -> bool:
        """Verify the checksum at the ejection port; False = discard."""
        expected = _crc8(flit.src, flit.ptype, flit.subtype,
                         flit.seq, flit.burst, flit.data)
        if flit.crc == expected:
            return True
        self.note(cycle, "crc_dropped", node, flit.src, flit.seq)
        return False

    # -- credit eating (the DMA-engine / TIE credit-path hook) ---------------

    def eat_credit(self, node: int, src: int, channel: int = 0) -> bool:
        """True if the plan swallows this credit token of ``src``'s to
        ``node`` (``channel`` 0 = unicast stream, 1 = multicast)."""
        key = (node, src, channel)
        remaining = self._credit_eat.get(key, 0)
        if remaining <= 0:
            return False
        self._credit_eat[key] = remaining - 1
        self.counts.inc("mcast_credits_eaten" if channel else "credits_eaten")
        return True

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> dict:
        return self.counts.as_dict()

    def describe(self) -> str:
        """One-line fault context for error messages and reports."""
        counters = self.counts.as_dict()
        summary = ", ".join(
            f"{key}={counters[key]}" for key in sorted(counters)
        ) or "no fault events"
        recent = "; ".join(
            f"cycle {event.cycle}: {event.key} {(event.tile, *event.payload)}"
            for event in self.events.of_kind(FAULT)[-3:]
        )
        gave_up = (
            f"; recovery gave up on: {', '.join(self.gave_up)}"
            if self.gave_up else ""
        )
        return (
            f"fault context [seed={self.plan.seed}]: {summary}"
            + (f" (last: {recent})" if recent else "")
            + gave_up
        )
