"""NoC-access arbiter between the shared-memory and message-passing paths.

Section II-B describes three implementations, all available here:

* ``MUX`` — no buffering: each interface presents one flit; one is granted
  per cycle (round-robin on contention), the other retries;
* ``SINGLE_FIFO`` — both interfaces push into one queue that keeps feeding
  the switch even when it is congested;
* ``DUAL_FIFO`` — a High-Priority queue and a Best-Effort queue; the
  best-effort queue is read only when the high-priority one is empty.

Which traffic class is high priority is configurable; MEDEA's rationale
(low-latency synchronization) maps message-passing traffic to HP by
default.
"""

from __future__ import annotations

import enum

from repro.errors import ProtocolError, parse_enum
from repro.kernel.fifo import Fifo
from repro.kernel.stats import CounterSet
from repro.noc.flit import Flit
from repro.noc.network import InjectionPort


class ArbiterMode(enum.Enum):
    MUX = "mux"
    SINGLE_FIFO = "single_fifo"
    DUAL_FIFO = "dual_fifo"

    @classmethod
    def parse(cls, value: "ArbiterMode | str") -> "ArbiterMode":
        return parse_enum(cls, value, "arbiter mode")


class TrafficClass(enum.Enum):
    MESSAGE = "message"
    MEMORY = "memory"


# Members as module constants, for the reason given in repro.noc.packet.
_MUX, _SINGLE_FIFO, __ = ArbiterMode
_MESSAGE_CLASS, __ = TrafficClass


class NocAccessArbiter:
    """Shares one injection port between the TIE and pif2NoC interfaces."""

    def __init__(
        self,
        inject_port: InjectionPort,
        mode: ArbiterMode | str = ArbiterMode.DUAL_FIFO,
        fifo_depth: int = 4,
        high_priority: TrafficClass | str = TrafficClass.MESSAGE,
        name: str = "arbiter",
    ) -> None:
        self.mode = ArbiterMode.parse(mode)
        self.high_priority = parse_enum(TrafficClass, high_priority, "traffic class")
        self.port = inject_port
        self.name = name
        self.stats = CounterSet(name)
        # The per-grant counters, plain ints that every read of ``stats``
        # folds in.
        self._n_granted = self._n_be_grants = 0
        self.stats.batch(self, (
            ("_n_be_grants", "be_grants"), ("_n_granted", "flits_granted"),
        ))
        #: Flits accepted from either interface and not yet granted; a
        #: plain count so the owning node's step can test it for free.
        self.n_pending = 0
        # _msg_q/_mem_q are where the two interfaces offer; _hp_q/_be_q
        # are the same queues seen from the drain side in the FIFO modes
        # (None in MUX, which drains the pair round-robin instead).
        self._hp_q: Fifo[Flit] | None = None
        self._be_q: Fifo[Flit] | None = None
        self._reject_key = "fifo_full_rejects"
        if self.mode is _MUX:
            # No buffering: each interface presents one flit at a time.
            self._msg_q: Fifo[Flit] = Fifo(1, name=f"{name}.msg")
            self._mem_q: Fifo[Flit] = Fifo(1, name=f"{name}.mem")
            self._reject_key = "mux_busy_rejects"
        elif self.mode is _SINGLE_FIFO:
            self._hp_q = self._msg_q = self._mem_q = Fifo(
                fifo_depth, name=f"{name}.q"
            )
        else:
            self._hp_q = Fifo(fifo_depth, name=f"{name}.hp")
            self._be_q = Fifo(fifo_depth, name=f"{name}.be")
            if self.high_priority is _MESSAGE_CLASS:
                self._msg_q, self._mem_q = self._hp_q, self._be_q
            else:
                self._msg_q, self._mem_q = self._be_q, self._hp_q
        self._last_granted = self._mem_q  # MUX: the message side goes first

    # -- producer side ---------------------------------------------------------

    def offer_message(self, flit: Flit) -> bool:
        """Hand over a message-class flit; False means retry next cycle."""
        queue = self._msg_q
        if len(queue._items) >= queue.capacity:
            self.stats.inc(self._reject_key)
            return False
        queue.push(flit)
        self.n_pending += 1
        return True

    def offer_memory(self, flit: Flit) -> bool:
        """Hand over a memory-class flit; False means retry next cycle."""
        queue = self._mem_q
        if len(queue._items) >= queue.capacity:
            self.stats.inc(self._reject_key)
            return False
        queue.push(flit)
        self.n_pending += 1
        return True

    # -- clocked drain -------------------------------------------------------------

    def tick(self) -> None:
        """Move at most one flit toward the injection port this cycle."""
        if self.port.pending is not None:
            return
        hp = self._hp_q
        if hp is None:
            # MUX: the interface that was not granted last goes first.
            last = self._last_granted
            flit = None
            for queue in (self._mem_q if last is self._msg_q else self._msg_q, last):
                if queue._items:
                    self._last_granted = queue
                    flit = queue.pop()
                    break
        elif hp._items:
            flit = hp.pop()
        else:
            be = self._be_q
            if be is None or not be._items:
                return
            self._n_be_grants += 1
            flit = be.pop()
        if flit is not None:
            self.n_pending -= 1
            if not self.port.try_inject(flit):
                raise ProtocolError(
                    f"{self.name}: injection port reported free but rejected flit"
                )
            self._n_granted += 1

    # -- introspection -----------------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return self.n_pending > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NocAccessArbiter {self.name} {self.mode.value}>"
