"""Base class for clocked hardware components."""

from __future__ import annotations

import typing
from heapq import heappush

from repro.errors import SimulationError
from repro.kernel.stats import CounterSet

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.simulator import Simulator


class Component:
    """A synchronous block stepped once per cycle while *active*.

    Sub-classes implement :meth:`step`.  A component that has no work to do
    should call :meth:`sleep` (optionally with a wakeup cycle); an external
    event source (an arriving flit, a freed FIFO slot) re-activates it with
    :meth:`wake`.  This is the mechanism behind the kernel's activity gating.

    The two write the kernel's schedule themselves, with no call into it:
    ``wake`` and ``sleep`` set and clear this component's bit of the
    active set (``Simulator._active``), and a timed ``sleep`` pushes its
    wake-up on ``Simulator._wakeups`` after the one check that it is not
    in the past.  The kernel writes them only to register a component and
    to release a due wake-up.

    Layout rule: a component, and every object it builds, has at most 29
    instance attributes (these six included) or names its own in
    ``__slots__`` (``ProcessorNode``).  CPython 3.11 keeps up to 29
    attribute values inline in the instance; at 30, or once anything
    reads ``vars(obj)`` or ``obj.__dict__``, the instance gets a real dict
    and every attribute access on it is slower at the same opcode count
    (ROADMAP item 16).  So nothing in ``src/`` reads either outside the
    state reader (:mod:`repro.kernel.state`), which no timed path calls;
    ``tests/system/test_instance_layout.py`` holds every component kind
    to the rule after a build and after a run.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Simulator | None = None
        self.active = False
        self.stats = CounterSet(name)
        #: Registration index (kernel phase order); set by Simulator.register.
        self._order = -1
        #: ``1 << _order``: this component's bit in the kernel's active set.
        self._bit = 0

    # -- kernel wiring -----------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        """Called by :meth:`Simulator.register`; do not call directly."""
        self.sim = sim

    def step(self, cycle: int) -> None:
        """Advance one clock cycle.  Sub-classes must override."""
        raise NotImplementedError

    # -- activity control --------------------------------------------------

    def wake(self) -> None:
        """Mark the component active so it is stepped from the next cycle
        (or later this cycle, when woken by an earlier-phase component)."""
        if not self.active:
            self.active = True
            sim = self.sim
            if sim is not None:
                sim._active |= self._bit

    def sleep(self, until: int | None = None) -> None:
        """Stop being stepped; optionally schedule a wakeup at ``until``.

        The bit is toggled only on a change of ``active``, which keeps the
        two equal.
        """
        sim = self.sim
        if self.active:
            self.active = False
            if sim is not None:
                sim._active ^= self._bit
        if until is not None:
            if sim is None:
                raise SimulationError(
                    f"{self.name}: sleep(until={until}) on a component no "
                    f"Simulator has registered; there is no clock to wake it"
                )
            if until < sim.cycle:
                raise SimulationError(
                    f"{self.name}: sleep(until={until}) is in the past "
                    f"(now {sim.cycle})"
                )
            seq = sim._wakeup_seq = sim._wakeup_seq + 1
            heappush(sim._wakeups, (until, seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
