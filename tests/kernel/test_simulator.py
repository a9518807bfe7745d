"""Kernel scheduling semantics: stepping, wakeups, fast-forward, deadlock."""

from __future__ import annotations

from enum import Enum

import sys

import pytest

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.errors import DeadlockError, SimulationError
from repro.kernel import simulator
from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from repro.system.config import SystemConfig


class Recorder(Component):
    """Steps for a fixed number of cycles, recording when it ran."""

    def __init__(self, name: str, run_cycles: int = 1) -> None:
        super().__init__(name)
        self.seen: list[int] = []
        self.remaining = run_cycles
        self.active = True

    def step(self, cycle: int) -> None:
        self.seen.append(cycle)
        self.remaining -= 1
        if self.remaining <= 0:
            self.sleep()


class Sleeper(Component):
    """Sleeps for `gap` cycles between steps, `repeats` times."""

    def __init__(self, name: str, gap: int, repeats: int) -> None:
        super().__init__(name)
        self.gap = gap
        self.repeats = repeats
        self.seen: list[int] = []
        self.active = True

    def step(self, cycle: int) -> None:
        self.seen.append(cycle)
        self.repeats -= 1
        if self.repeats > 0:
            self.sleep(until=cycle + self.gap)
        else:
            self.sleep()


def test_single_component_steps_each_cycle():
    sim = Simulator()
    comp = Recorder("a", run_cycles=5)
    sim.register(comp)
    sim.run(max_cycles=10)
    assert comp.seen == [0, 1, 2, 3, 4]


def test_run_returns_elapsed_cycles():
    sim = Simulator()
    sim.register(Recorder("a", run_cycles=3))
    # Without `until`, run() stops at quiescence even under max_cycles.
    elapsed = sim.run(max_cycles=10)
    assert elapsed == 3
    assert sim.cycle == 3


def test_run_stops_when_idle_without_until():
    sim = Simulator()
    comp = Recorder("a", run_cycles=2)
    sim.register(comp)
    sim.run()  # no max_cycles: stops at quiescence
    assert comp.seen == [0, 1]


def test_fast_forward_jumps_over_idle_cycles():
    sim = Simulator()
    comp = Sleeper("s", gap=1000, repeats=3)
    sim.register(comp)
    sim.run()
    assert comp.seen == [0, 1000, 2000]


def test_fast_forward_equivalent_to_dense_stepping():
    """A sleeping component must observe identical cycles either way."""
    def run(gap: int, busy_partner: bool) -> list[int]:
        sim = Simulator()
        sleeper = Sleeper("s", gap=gap, repeats=4)
        sim.register(sleeper)
        if busy_partner:
            # A partner active every cycle prevents any fast-forward.
            sim.register(Recorder("busy", run_cycles=5 * gap))
        sim.run(max_cycles=10 * gap)
        return sleeper.seen

    assert run(7, busy_partner=False) == run(7, busy_partner=True)


def test_components_step_in_registration_order():
    sim = Simulator()
    order: list[str] = []

    class Ordered(Component):
        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.active = True

        def step(self, cycle: int) -> None:
            order.append(self.name)
            self.sleep()

    for name in ("first", "second", "third"):
        sim.register(Ordered(name))
    sim.run(max_cycles=2)
    assert order == ["first", "second", "third"]


def test_wake_at_same_cycle_wakeups_run_in_schedule_order():
    sim = Simulator()
    comp_a = Sleeper("a", gap=5, repeats=2)
    comp_b = Sleeper("b", gap=5, repeats=2)
    sim.register(comp_a)
    sim.register(comp_b)
    sim.run()
    assert comp_a.seen == comp_b.seen == [0, 5]


def test_deadlock_raises_with_diagnostics():
    sim = Simulator()

    class Stuck(Component):
        def step(self, cycle: int) -> None:  # pragma: no cover
            raise AssertionError("never stepped")

    stuck = sim.register(Stuck("stuck"))
    stuck.phase = Enum("Phase", {"WAITING": "waiting for a reply"}).WAITING
    with pytest.raises(DeadlockError) as exc:
        sim.run(until=lambda: False)
    assert "\n  stuck: phase=waiting for a reply" in str(exc.value)


def test_until_checked_before_stepping():
    sim = Simulator()
    comp = Recorder("a", run_cycles=100)
    sim.register(comp)
    sim.run(until=lambda: len(comp.seen) >= 3, max_cycles=100)
    assert len(comp.seen) == 3


def test_max_cycles_with_until_raises_when_exceeded():
    sim = Simulator()
    sim.register(Recorder("a", run_cycles=1000))
    with pytest.raises(SimulationError):
        sim.run(max_cycles=5, until=lambda: False)


def test_wakeup_in_past_rejected():
    sim = Simulator()
    comp = Recorder("a", run_cycles=50)
    sim.register(comp)
    sim.run(max_cycles=10)
    with pytest.raises(
        SimulationError, match=r"^a: sleep\(until=3\) is in the past \(now 10\)",
    ):
        comp.sleep(until=3)
    assert not sim._wakeups


def test_timed_sleep_before_registration_is_a_typed_error():
    """Not an assert: it names the component and fires under ``python -O``
    (an untimed sleep needs no clock and stays legal)."""
    comp = Recorder("orphan")
    comp.sleep()
    with pytest.raises(
        SimulationError, match=r"orphan: sleep\(until=7\) on a component no "
                               r"Simulator has registered",
    ):
        comp.sleep(until=7)


def test_double_registration_rejected():
    sim = Simulator()
    comp = Recorder("a")
    sim.register(comp)
    with pytest.raises(SimulationError):
        sim.register(comp)


def test_run_not_reentrant():
    sim = Simulator()

    class Recursive(Component):
        def __init__(self) -> None:
            super().__init__("recursive")
            self.active = True
            self.error: Exception | None = None

        def step(self, cycle: int) -> None:
            try:
                self.sim.run(max_cycles=1)
            except SimulationError as exc:
                self.error = exc
            self.sleep()

    comp = Recursive()
    sim.register(comp)
    sim.run(max_cycles=2)
    assert isinstance(comp.error, SimulationError)


def test_wake_is_idempotent():
    sim = Simulator()
    comp = Recorder("a", run_cycles=2)
    sim.register(comp)
    comp.wake()
    comp.wake()
    sim.run(max_cycles=5)
    assert comp.seen == [0, 1]


def test_duplicate_wakeups_step_component_once_per_cycle():
    sim = Simulator()
    comp = Sleeper("s", gap=3, repeats=2)
    sim.register(comp)
    comp.sleep(until=3)
    comp.sleep(until=3)
    comp.wake()  # active at 0 again, with two wake-ups pending at 3
    sim.run()
    assert comp.seen == [0, 3]


def test_component_activated_mid_run_is_stepped():
    sim = Simulator()
    late = Recorder("late", run_cycles=2)
    late.active = False

    class Waker(Component):
        def __init__(self) -> None:
            super().__init__("waker")
            self.active = True

        def step(self, cycle: int) -> None:
            if cycle == 4:
                late.wake()
                self.sleep()

    sim.register(Waker())
    sim.register(late)
    sim.run(max_cycles=20)
    assert late.seen == [4, 5]


def test_component_woken_by_a_later_phase_steps_next_cycle():
    sim = Simulator()
    early = Recorder("early", run_cycles=2)
    early.active = False

    class Waker(Component):
        def __init__(self) -> None:
            super().__init__("waker")
            self.active = True

        def step(self, cycle: int) -> None:
            if cycle == 4:
                early.wake()
                self.sleep()

    sim.register(early)
    sim.register(Waker())
    sim.run(max_cycles=20)
    assert early.seen == [5, 6]


def test_component_that_sleeps_and_wakes_itself_steps_next_cycle():
    sim = Simulator()

    class Napper(Component):
        def __init__(self) -> None:
            super().__init__("napper")
            self.active = True
            self.seen: list[int] = []

        def step(self, cycle: int) -> None:
            self.seen.append(cycle)
            self.sleep()
            if len(self.seen) < 3:
                self.wake()

    napper = sim.register(Napper())
    after = sim.register(Recorder("after", run_cycles=3))
    sim.run(max_cycles=20)
    assert napper.seen == [0, 1, 2]
    assert after.seen == [0, 1, 2]


def test_seventy_components_step_in_registration_order():
    """More components than a machine word has bits (``jacobi_wb_64t``
    registers 65, ``chiplet_hier_64t`` 66): every one steps in phase order,
    also after waking out of order and mid-cycle."""
    sim = Simulator()
    order: list[tuple[int, int]] = []

    class Ordered(Component):
        def __init__(self, index: int) -> None:
            super().__init__(f"c{index}")
            self.index = index
            self.active = True

        def step(self, cycle: int) -> None:
            order.append((cycle, self.index))
            if cycle == 0:
                # Evens wake at 1, odds at 2 (out of registration order).
                self.sleep(until=1 + self.index % 2)
            elif cycle == 1:
                if self.index == 2:
                    parts[67].wake()  # later: steps this cycle
                elif self.index == 68:
                    parts[3].wake()  # earlier: steps next cycle
                self.sleep(until=2)
            else:
                self.sleep()

    parts = [sim.register(Ordered(index)) for index in range(70)]
    sim.run(max_cycles=10)
    by_cycle: dict[int, list[int]] = {}
    for cycle, index in order:
        by_cycle.setdefault(cycle, []).append(index)
    assert by_cycle == {
        0: list(range(70)),
        1: sorted([*range(0, 70, 2), 67]),
        2: list(range(70)),
    }
    assert sim.cycle == 3


def test_empty_simulator_run_is_a_noop():
    sim = Simulator()
    assert sim.run(max_cycles=100) == 0
    assert sim.cycle == 0


# -- horizon: how far a component may run ahead of the clock -----------------


class HorizonProbe(Component):
    """Records ``(cycle, sim.horizon)`` on every step."""

    def __init__(self) -> None:
        super().__init__("probe")
        self.seen: list[tuple[int, int]] = []
        self.active = True

    def step(self, cycle: int) -> None:
        self.seen.append((cycle, self.sim.horizon))


def test_horizon_is_the_deadline_and_zero_outside_run():
    sim = Simulator()
    probe = sim.register(HorizonProbe())
    assert sim.horizon == 0
    sim.run(max_cycles=3)
    assert probe.seen == [(0, 3), (1, 3), (2, 3)]
    assert sim.horizon == 0
    sim.run(max_cycles=2)  # a deadline is relative to the run's start
    assert probe.seen[3:] == [(3, 5), (4, 5)]


def test_horizon_follows_the_clock_when_until_is_polled_every_cycle():
    sim = Simulator()
    probe = sim.register(HorizonProbe())
    sim.run(until=lambda: sim.cycle == 3)
    assert probe.seen == [(0, 0), (1, 1), (2, 2)]


def test_horizon_is_the_deadline_when_until_is_polled_only_when_idle():
    sim = Simulator()
    probe = sim.register(HorizonProbe())
    with pytest.raises(SimulationError):
        sim.run(max_cycles=2, until=lambda: False, until_idle=True)
    assert probe.seen == [(0, 2), (1, 2)]


def test_horizon_stops_after_the_declared_observation():
    sim = Simulator()
    probe = sim.register(HorizonProbe())
    sim.observe_at(1)  # cycle 1's final state will be read
    sim.run(max_cycles=1)
    assert probe.seen == [(0, 1)]  # the nearer bound wins
    sim.run(max_cycles=4)
    # An observation nobody renewed keeps holding the horizon back.
    assert probe.seen[1:] == [(1, 2), (2, 2), (3, 2), (4, 2)]
    sim.observe_at(9)
    sim.run(max_cycles=2)
    assert probe.seen[5:] == [(5, 7), (6, 7)]


def test_the_deadline_cycle_is_never_stepped():
    """A wakeup landing exactly on the deadline waits for the next run."""
    sim = Simulator()
    comp = Sleeper("s", gap=5, repeats=3)
    sim.register(comp)
    assert sim.run(max_cycles=5) == 5
    assert comp.seen == [0]
    assert sim.cycle == 5
    sim.run(max_cycles=6)
    assert comp.seen == [0, 5, 10]


def test_a_built_system_runs_without_calling_into_the_kernel():
    """Wakes, sleeps and timed wake-ups write the kernel's state in place:
    in a whole run (a 2-worker write-through Jacobi, which sleeps on
    timers and on flits) no function of the kernel's module but
    ``Simulator.run`` is entered."""
    entered: set[str] = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == simulator.__file__:
            entered.add(frame.f_code.co_qualname)

    def trace_run(system):
        sys.setprofile(profile)

    try:
        run_jacobi(SystemConfig(n_workers=2, cache_policy="wt"),
                   JacobiParams(n=10, iterations=2, warmup=1),
                   observer=trace_run)
    finally:
        sys.setprofile(None)
    assert entered == {"Simulator.run"}
