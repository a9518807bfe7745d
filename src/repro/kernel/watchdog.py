"""No-progress watchdog: turns silent hangs into structured reports.

A deadlock the kernel can prove — empty active set, no pending wakeup —
already raises :class:`~repro.errors.DeadlockError` with the run's
report.  A system *live but stuck* — endlessly polling (reliability
timers, lock backoff, eMPI progress loops) after retries were exhausted
on a dead link, or deflecting flits that never arrive — never goes
wakeup-free, so it would spin to ``max_cycles``.

The watchdog is a component registered *last* (after every node, so its
checks see the cycle's final state), waking every ``budget`` cycles.  If
between two consecutive checks (1) no flit entered or left the network
and (2) no core was RUNNING and the MPMMU was idle at both check points,
it raises :class:`~repro.errors.WatchdogError` carrying the kernel's
report and, under ``moved since the last check:``, every leaf of the
watched components' state that changed in between (read only at checks
where no core is busy, from the second on): in a livelock, the circling
flits.  Both predicates are supplied by the system builder as callables,
keeping the kernel free of system-layer imports.

Timing neutrality: the watchdog's step only reads state, and its wakeups
merely add cycles to the kernel's visit schedule — they never change
what any other component does or when, so simulated cycle counts are
bit-identical with and without it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import WatchdogError
from repro.kernel.component import Component


class ProgressWatchdog(Component):
    """Periodic liveness check over a snapshot/busy fingerprint pair."""

    def __init__(
        self,
        budget: int,
        snapshot: Callable[[], tuple],
        busy: Callable[[], bool],
        watched: Sequence[Component],
    ) -> None:
        if budget <= 0:
            raise ValueError(f"watchdog budget must be positive, got {budget}")
        super().__init__("watchdog")
        self.budget = budget
        self._snapshot = snapshot
        self._busy = busy
        self.watched = watched
        self._last: tuple | None = None
        self._was_busy = True
        #: The watched components' state at the last check, if not busy.
        self.kept: dict | None = None

    def step(self, cycle: int) -> None:
        snap = self._snapshot()
        busy = self._busy()
        if (
            self._last is not None
            and snap == self._last
            and not busy
            and not self._was_busy
        ):
            from repro.kernel.state import changes, short
            if self.kept is None:  # the last check was the first
                moved = ["    not read at the first check"]
            else:
                moved = [f"    {path}: {short(before)} → {short(after)}"
                         for path, before, after
                         in changes("", self.kept, self._state())] or ["    nothing"]
            raise WatchdogError(
                f"no progress for {self.budget} cycles (watchdog fired at "
                f"cycle {cycle}): no flit entered or left the network and "
                f"no core ran since the last check\n{self.sim.report()}\n"
                f"  moved since the last check:\n" + "\n".join(moved)
            )
        # Not at the first check, the only one a run shorter than the
        # budget makes: a read gives each object it reads a real
        # ``__dict__``, slower to use (CPython 3.11; one at cycle 0 cost
        # allreduce_tree_8w_lossy a tenth of its speed).
        self.kept = None if busy or self._last is None else self._state()
        self._last = snap
        self._was_busy = busy
        self.sleep(until=cycle + self.budget)

    def _state(self) -> dict:
        from repro.kernel.state import component_state
        return {component.name: component_state(component)
                for component in self.watched}
