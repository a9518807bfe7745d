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
        self._last_granted: TrafficClass = TrafficClass.MEMORY
        #: Flits accepted from either interface and not yet granted; a
        #: plain count so the owning node's step can test it for free.
        self.n_pending = 0
        # _hp_q/_be_q (drain side) and _msg_q/_mem_q (offer side) are the
        # FIFO modes' queues; MUX keeps only the slot pair and leaves
        # these None.
        self._hp_q: Fifo[Flit] | None = None
        self._be_q: Fifo[Flit] | None = None
        self._msg_q: Fifo[Flit] | None = None
        self._mem_q: Fifo[Flit] | None = None
        self._slots: dict[TrafficClass, Flit | None] = {}
        if self.mode is ArbiterMode.MUX:
            self._slots = {
                TrafficClass.MESSAGE: None,
                TrafficClass.MEMORY: None,
            }
        elif self.mode is ArbiterMode.SINGLE_FIFO:
            shared: Fifo[Flit] = Fifo(fifo_depth, name=f"{name}.q")
            self._hp_q = self._msg_q = self._mem_q = shared
        else:
            self._hp_q = Fifo(fifo_depth, name=f"{name}.hp")
            self._be_q = Fifo(fifo_depth, name=f"{name}.be")
            if self.high_priority is TrafficClass.MESSAGE:
                self._msg_q, self._mem_q = self._hp_q, self._be_q
            else:
                self._msg_q, self._mem_q = self._be_q, self._hp_q

    # -- producer side ---------------------------------------------------------

    def _offer_slot(self, traffic_class: TrafficClass, flit: Flit) -> bool:
        """MUX: one unbuffered slot per interface."""
        if self._slots[traffic_class] is not None:
            self.stats.inc("mux_busy_rejects")
            return False
        self._slots[traffic_class] = flit
        self.n_pending += 1
        return True

    def offer_message(self, flit: Flit) -> bool:
        """Hand over a message-class flit; False means retry next cycle."""
        queue = self._msg_q
        if queue is None:
            return self._offer_slot(TrafficClass.MESSAGE, flit)
        if queue.try_push(flit):
            self.n_pending += 1
            return True
        self.stats.inc("fifo_full_rejects")
        return False

    def offer_memory(self, flit: Flit) -> bool:
        """Hand over a memory-class flit; False means retry next cycle."""
        queue = self._mem_q
        if queue is None:
            return self._offer_slot(TrafficClass.MEMORY, flit)
        if queue.try_push(flit):
            self.n_pending += 1
            return True
        self.stats.inc("fifo_full_rejects")
        return False

    # -- clocked drain -------------------------------------------------------------

    def tick(self) -> None:
        """Move at most one flit toward the injection port this cycle."""
        if self.port.pending is not None:
            self.stats.inc("port_busy_cycles")
            return
        hp = self._hp_q
        if hp is None:
            flit = self._select_slot()
        elif hp._items:
            flit = hp.pop()
        else:
            be = self._be_q
            if be is None or not be._items:
                return
            self.stats.inc("be_grants")
            flit = be.pop()
        if flit is not None:
            self.n_pending -= 1
            if not self.port.try_inject(flit):
                raise ProtocolError(
                    f"{self.name}: injection port reported free but rejected flit"
                )
            self.stats.inc("flits_granted")

    def _select_slot(self) -> Flit | None:
        """MUX: round-robin over the two slots."""
        first = self._other(self._last_granted)
        for traffic_class in (first, self._last_granted):
            flit = self._slots[traffic_class]
            if flit is not None:
                self._slots[traffic_class] = None
                self._last_granted = traffic_class
                return flit
        return None

    @staticmethod
    def _other(traffic_class: TrafficClass) -> TrafficClass:
        if traffic_class is TrafficClass.MESSAGE:
            return TrafficClass.MEMORY
        return TrafficClass.MESSAGE

    # -- introspection -----------------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return self.n_pending > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NocAccessArbiter {self.name} {self.mode.value}>"
