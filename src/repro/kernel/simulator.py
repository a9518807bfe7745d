"""The cycle-level simulation kernel.

The kernel models a single global clock.  Registered components are stepped
in registration order on every cycle in which they are active; registration
order therefore defines intra-cycle phase ordering (the system builder
registers the NoC fabric first, then the processing nodes, so ejected flits
become visible to a node in the same cycle they leave the network, and
injected flits enter the network on the following cycle).

Four exact optimizations keep Python wall-clock time proportional to the
number of *events* rather than the number of *cycles* or *components*:

* components de-activate themselves when blocked and are re-activated
  either by a scheduled wakeup (time-blocked, e.g. a 19-cycle FP add) or
  by an explicit :meth:`~repro.kernel.component.Component.wake` from a peer
  (event-blocked, e.g. waiting for a reply flit);
* when no component is active the clock jumps to the next wakeup;
* a cycle only visits the *active* components: the active set is one
  integer whose bit ``order`` is set while the component registered
  ``order``-th is active (``wake`` sets it, ``sleep`` clears it), and a
  cycle steps its lowest set bit, then re-reads the mask *above* that bit
  after every step; a busy cycle short of the deadline (``NEVER`` when
  there is none) makes one test before that, and ``until`` and the idle
  tests run only on an idle cycle or when ``until`` is polled every cycle;
* a component may *run ahead* of the clock over work nothing outside it
  can see or disturb (a core's L1 hits, FP ops and scratchpad accesses:
  private state under software coherence), applying the effects at once
  and sleeping until the first cycle it touches anything shared.  It may
  run ahead only to :attr:`Simulator.horizon`, the first cycle at which
  something outside a component may look at it — the run's deadline, the
  current cycle when ``until`` is polled every cycle, the cycle after
  the next :meth:`Simulator.observe_at` sample — so every observer sees
  exactly the state the cycle-by-cycle schedule would have shown it.

The schedule has two writers and no call between them.  A component
writes its own part: ``wake`` and ``sleep`` set and clear its bit of the
active set, and ``sleep(until=…)`` pushes its wake-up on the heap after
the one past-cycle check there is.  :meth:`Simulator.run` writes the rest:
it sets the bit (and ``active``) of each wake-up that falls due.

That re-read is the whole mid-cycle wake contract: a component woken by
an earlier phase (a higher bit) steps this cycle, one woken by a later
phase or by itself (a bit at or below the one stepping) steps next cycle.
Stepping in ascending bit order is therefore exactly the scan-all loop —
release due wakes, then step every registered component that is
``active``, in registration order — which ``tests/reference_machine.py``
keeps beside this one as its readable twin, ``ScanAllSimulator``, and
``tests/kernel/test_scheduler_differential.py`` holds it to, step for step.
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Callable

from repro.errors import DeadlockError, SimulationError
from repro.kernel.component import Component

#: A cycle no run reaches: "no deadline", "no observer".
NEVER = sys.maxsize


class Simulator:
    """Global clock and scheduler for a set of :class:`Component` objects."""

    def __init__(self, report: Callable[[], str] | None = None) -> None:
        self.cycle = 0
        #: What every error that stops a run unfinished carries: the
        #: system's (``MedeaSystem.report``) or one line per component.
        self.report = report or self._component_lines
        self._components: list[Component] = []
        #: The active set: bit ``Component._order`` set while it is active.
        self._active = 0
        #: ``(cycle, seq, component)`` pushed by a timed ``sleep``; ``seq``
        #: counts every wake-up ever scheduled and orders those of a cycle.
        self._wakeups: list[tuple[int, int, Component]] = []
        self._wakeup_seq = 0
        self._running = False
        #: First cycle at which anything outside a component may look at
        #: it; a component may apply private effects early only for
        #: cycles before it.  0 outside :meth:`run`: stepping a component
        #: by hand never runs ahead.
        self.horizon = 0
        #: The two bounds ``horizon`` is the minimum of: where this
        #: ``run`` stops looking away, and the cycle after the next
        #: declared observation.
        self._run_horizon = 0
        self._observed_horizon = NEVER

    # -- registration -------------------------------------------------------

    def register(self, component: Component) -> Component:
        """Add ``component`` to the stepped set (in phase order) and return it."""
        if component.sim is not None:
            raise SimulationError(f"{component.name} already registered")
        component.attach(self)
        component._order = len(self._components)
        component._bit = 1 << component._order
        self._components.append(component)
        if component.active:
            self._active |= component._bit
        return component

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    def observe_at(self, cycle: int) -> None:
        """Declare that component state will next be read at ``cycle``.

        For a reader that is itself a component registered after the
        ones it reads (the telemetry sampler): it sees ``cycle``'s final
        state, so nothing may run ahead past ``cycle``.  One reader at a
        time: each call replaces the previous declaration.
        """
        self._observed_horizon = cycle + 1
        self.horizon = min(self._run_horizon, self._observed_horizon)

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        max_cycles: int | None = None,
        until: Callable[[], bool] | None = None,
        until_idle: bool = False,
    ) -> int:
        """Advance the clock until ``until()`` is true (or ``max_cycles``).

        Returns the number of cycles elapsed during this call.  Raises
        :class:`DeadlockError` if the system goes fully idle with no pending
        wakeup while ``until`` is still false — i.e. a genuine protocol
        deadlock — and :class:`SimulationError` if ``max_cycles`` elapse
        first; both carry :attr:`report`.

        ``until_idle=True`` is an exactness-preserving optimization for
        stop conditions that can only become true when every component is
        asleep (e.g. "all programs drained"): ``until`` is then consulted
        only on cycles where the active set is empty, instead of every
        cycle.  Without it ``until`` may read any component on any cycle,
        so :attr:`horizon` follows the clock and nothing runs ahead: that
        schedule is the cycle-by-cycle reference the run-ahead one is
        tested against.  The reference machine of
        ``tests/reference_machine.py`` runs whole systems on that schedule
        and on the scan-all loop of the module docstring at once.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        start = now = self.cycle
        deadline = NEVER if max_cycles is None else start + max_cycles
        every_cycle = until is not None and not until_idle
        self._run_horizon = deadline
        self.horizon = min(self._run_horizon, self._observed_horizon)
        wakeups = self._wakeups
        components = self._components
        heappop = heapq.heappop
        try:
            while True:
                # A busy cycle short of the deadline tests nothing else.
                if not self._active or every_cycle or now >= deadline:
                    idle = not self._active
                    if (idle or every_cycle) and until is not None and until():
                        break
                    if now >= deadline:
                        if until is None:
                            break
                        raise SimulationError(
                            f"max_cycles={max_cycles} exceeded before stop "
                            f"condition (now {now})\n{self.report()}"
                        )
                    # Fast-forward over idle time.
                    if idle:
                        if not wakeups:
                            if until is None:
                                break
                            raise DeadlockError(
                                f"deadlock at cycle {now}: no active "
                                f"component, no wakeup\n{self.report()}"
                            )
                        target = wakeups[0][0]
                        if target >= deadline:
                            # Cycle ``deadline`` itself is never stepped.
                            self.cycle = now = deadline
                            continue
                        if target > now:
                            self.cycle = now = target
                    if every_cycle:
                        self._run_horizon = self.horizon = now
                # Release due wakeups (``Component.wake``, inline: setting
                # a bit already set changes nothing).
                while wakeups and wakeups[0][0] <= now:
                    comp = heappop(wakeups)[2]
                    comp.active = True
                    self._active |= comp._bit
                # Step the lowest active bit, then re-read the mask above
                # it (module docstring: the mid-cycle wake contract).
                mask = self._active
                while mask:
                    above = (mask & -mask).bit_length()
                    components[above - 1].step(now)
                    mask = self._active >> above << above
                now += 1
                self.cycle = now
        finally:
            self._running = False
            self._run_horizon = self.horizon = 0
        return self.cycle - start

    def _component_lines(self) -> str:
        # Imported here: a run that stops as asked never loads the reader.
        from repro.kernel.state import component_lines
        return "\n".join(component_lines(self._components))
