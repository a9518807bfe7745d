"""The kernel's bit-mask scheduler against its readable twin.

``Simulator.run`` keeps the active set as one integer and steps its lowest
set bit, re-reading the mask above it after every step
(``kernel/simulator.py``, module docstring).  Its twin is the loop that
docstring claims equivalence with — every cycle, release the due
wake-ups, then step every registered component that is ``active``, in
registration order: ``ScanAllSimulator`` of ``tests/reference_machine.py``,
with no switch for it in ``src/``.  Both schedulers must produce the same
per-cycle step trace and ``horizon`` for drawn synthetic components (wakes
of earlier and later components and of themselves, sleeps with and
without ``until``, duplicate timed wakes, ``until`` polled every cycle or
only when idle, an ``observe_at`` reader).  Whole systems run on the
reference machine in ``tests/system/test_reference_machine.py``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.dse.registry import full_scale_requested
from repro.errors import DeadlockError, SimulationError
from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from tests.reference_machine import ScanAllSimulator


# -- drawn synthetic components ------------------------------------------------


class Scripted(Component):
    """Plays one drawn move per step, then sleeps for good.

    A move is ``(targets, rest, twice)``: ``rest`` is ``None`` (stay
    active), ``0`` (sleep) or a delay ``d`` (sleep until ``cycle + d``);
    ``twice`` sleeps a second time, asleep already — with ``d``, a
    duplicate timed wake.  Then every component in ``targets`` — earlier
    ones, later ones, this one — is woken.
    """

    def __init__(self, index, moves, trace, parts) -> None:
        super().__init__(f"c{index}")
        self.index = index
        self.moves = moves
        self.trace = trace
        self.parts = parts
        self.played = 0
        self.active = bool(moves)

    def step(self, cycle: int) -> None:
        self.trace.append((cycle, self.index, self.sim.horizon))
        if self.played >= len(self.moves):
            self.sleep()
            return
        targets, rest, twice = self.moves[self.played]
        self.played += 1
        if rest is not None:
            for __ in range(1 + twice):
                self.sleep(until=cycle + rest if rest else None)
        for target in targets:
            self.parts[target % len(self.parts)].wake()


class Reader(Component):
    """A sampler registered last: declares its next read, sleeps to it."""

    def __init__(self, period: int, trace) -> None:
        super().__init__("reader")
        self.period = period
        self.trace = trace
        self.active = True

    def step(self, cycle: int) -> None:
        self.trace.append((cycle, "reader", self.sim.horizon))
        self.sim.observe_at(cycle + self.period)
        self.sleep(until=cycle + self.period)


def draw_scripts(seed: int, n_components: int) -> list[list[tuple]]:
    """Up to eight moves per component, from ``seed``: wake targets
    earlier, later or itself, and every kind of rest."""
    rng = random.Random(seed)
    return [
        [
            (
                [rng.randrange(n_components) for __ in range(rng.randrange(3))],
                rng.choice([None, None, 0, 1, 2, 3, 7]),
                rng.random() < 0.3,
            )
            for __ in range(rng.randrange(9))
        ]
        for __ in range(n_components)
    ]


_scenarios = st.tuples(
    st.integers(0, 2**16),                              # script seed
    st.integers(2, 70),                                 # components
    st.sampled_from(["deadline", "every_cycle", "when_idle"]),
    st.integers(1, 200),                                # max_cycles
    st.sampled_from([None, 1, 5, 16]),                  # observe_at period
)


def play(simulator_class, scenario) -> dict:
    seed, n_components, mode, max_cycles, period = scenario
    scripts = draw_scripts(seed, n_components)
    sim = simulator_class()
    trace: list = []
    parts: list = []
    for index, moves in enumerate(scripts):
        parts.append(sim.register(Scripted(index, moves, trace, parts)))
    if period is not None:
        sim.register(Reader(period, trace))

    def played() -> int:
        return sum(part.played for part in parts)

    total = sum(len(moves) for moves in scripts)
    kwargs = {
        "deadline": {},
        "every_cycle": {"until": lambda: played() * 2 >= total},
        "when_idle": {"until": lambda: played() == total, "until_idle": True},
    }[mode]
    try:
        outcome = sim.run(max_cycles=max_cycles, **kwargs)
    except (DeadlockError, SimulationError) as error:
        outcome = (type(error).__name__, str(error))
    # The bit-mask kernel's active set is exactly the ``active`` flags.
    assert sim._active == sum(c._bit for c in sim._components if c.active)
    return {
        "trace": trace,
        "outcome": outcome,
        "cycle": sim.cycle,
        "active": [part.active for part in sim._components],
        "wakeups": sorted(
            (cycle, seq, comp.name) for cycle, seq, comp in sim._wakeups
        ),
    }


@settings(
    max_examples=600 if full_scale_requested() else 40,
    derandomize=True, deadline=None, database=None,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=_scenarios)
# Past one machine word, each way of stopping.
@example(scenario=(1, 70, "deadline", 200, 5))
@example(scenario=(2, 66, "when_idle", 200, None))
@example(scenario=(3, 65, "every_cycle", 200, 1))
def test_drawn_components_step_alike_under_both_schedulers(scenario):
    assert play(Simulator, scenario) == play(ScanAllSimulator, scenario)
