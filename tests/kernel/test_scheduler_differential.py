"""The kernel's bit-mask scheduler against its readable twin.

``Simulator.run`` keeps the active set as one integer and steps its lowest
set bit, re-reading the mask above it after every step
(``kernel/simulator.py``, module docstring).  Its twin below is the loop
that docstring claims equivalence with: every cycle, release the due
wake-ups, then step every registered component that is ``active``, in
registration order.  The twin lives here only; there is no switch for it
in ``src/``.  Both schedulers must produce the same per-cycle step trace
and ``horizon`` for drawn synthetic components (wakes of earlier and later
components and of themselves, sleeps with and without ``until``,
duplicate timed wakes, ``until`` polled every cycle or only when idle, an
``observe_at`` reader) and the same cycles, statistics and report for
whole systems.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.dse.registry import full_scale_requested
from repro.errors import DeadlockError, SimulationError
from repro.faults import FaultPlan
from repro.kernel.component import Component
from repro.kernel.simulator import NEVER, Simulator
from repro.system.config import SystemConfig
from repro.telemetry.attribution import build_report, render_report
from repro.telemetry.config import TelemetryConfig


class ScanAllSimulator(Simulator):
    """The scan-all loop: due wakes, then every active component in order."""

    def run(self, max_cycles=None, until=None, until_idle=False) -> int:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        start = self.cycle
        deadline = None if max_cycles is None else start + max_cycles
        every_cycle = until is not None and not until_idle
        self._run_horizon = NEVER if deadline is None else deadline
        self.horizon = min(self._run_horizon, self._observed_horizon)
        try:
            while True:
                idle = not any(comp.active for comp in self._components)
                if (idle or every_cycle) and until is not None and until():
                    break
                if deadline is not None and self.cycle >= deadline:
                    if until is None:
                        break
                    raise SimulationError(
                        f"max_cycles={max_cycles} exceeded before stop "
                        f"condition (now {self.cycle})"
                    )
                if idle:
                    if not self._wakeups:
                        if until is None:
                            break
                        raise DeadlockError(self._deadlock_report())
                    target = self._wakeups[0][0]
                    if deadline is not None and target >= deadline:
                        self.cycle = deadline
                        continue
                    self.cycle = max(self.cycle, target)
                now = self.cycle
                if every_cycle:
                    self._run_horizon = self.horizon = now
                while self._wakeups and self._wakeups[0][0] <= now:
                    heapq.heappop(self._wakeups)[2].wake()
                for comp in self._components:
                    if comp.active:
                        comp.step(now)
                self.cycle = now + 1
        finally:
            self._running = False
            self._run_horizon = self.horizon = 0
        return self.cycle - start


def mask_agrees(sim: Simulator) -> bool:
    """The bit-mask kernel's active set is exactly the ``active`` flags."""
    return sim._active == sum(
        comp._bit for comp in sim._components if comp.active
    )


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
    assert mask_agrees(sim)
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


# -- whole systems -------------------------------------------------------------


def allreduce(algorithm: str, n_values: int, repeats: int = 1):
    return CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=n_values, repeats=repeats,
    )


_EIGHT = SystemConfig(n_workers=8, cache_size_kb=16)
_FOUR_WT = SystemConfig(n_workers=4, cache_size_kb=4, cache_policy="wt")
_JACOBI = JacobiParams(n=10, iterations=2, warmup=0)

#: name -> (driver, config, params).
SYSTEMS = {
    "jacobi_wt": (run_jacobi, _FOUR_WT, _JACOBI),
    "dma_ring": (
        run_collective_bench, _EIGHT.with_changes(dma_tx_queue_depth=4),
        allreduce("ring", 64),
    ),
    "lossy_tree": (
        run_collective_bench,
        _EIGHT.with_changes(faults=FaultPlan(seed=3, drop_rate=0.02)),
        allreduce("tree", 16, repeats=2),
    ),
    # 64 workers, fabric and MPMMU: 66 components, a mask past 64 bits.
    "chiplet_hier": (
        run_collective_bench,
        SystemConfig(
            n_workers=64, cache_size_kb=16, topology_kind="chiplet",
            chiplets=4, chiplet_grid=(4, 4), chiplet_link_latency=8,
            chiplet_link_width=2,
        ),
        allreduce("hier", 8),
    ),
    "jacobi_wt_telemetry": (
        run_jacobi,
        _FOUR_WT.with_changes(
            telemetry=TelemetryConfig(sample_interval=256, attribution=True)
        ),
        _JACOBI,
    ),
}


def run_system(name: str, simulator_class) -> dict:
    driver, config, params = SYSTEMS[name]
    seen = []
    result = driver(config, params, observer=seen.append)
    assert result.validated
    (system,) = seen
    assert type(system.sim) is simulator_class and mask_agrees(system.sim)
    return {
        "cycles": result.total_cycles,
        "stats": system.collect_stats(),
        "report": render_report(build_report(system, workload=name)),
        "components": len(system.sim.components),
    }


@pytest.mark.parametrize("name", SYSTEMS)
def test_whole_systems_run_alike_under_both_schedulers(name, monkeypatch):
    as_built = run_system(name, Simulator)
    monkeypatch.setattr("repro.system.medea.Simulator", ScanAllSimulator)
    assert run_system(name, ScanAllSimulator) == as_built
