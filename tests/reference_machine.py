"""The reference machine: every host-side skip turned off at once.

Each shortcut that must not change what the simulator computes has its
readable twin here, the plain loop it claims to be equivalent to:
``kernel``, the bit-mask active set (:class:`ScanAllSimulator`: due
wake-ups, then every ``active`` component in registration order);
``run_ahead``, cores running ahead of the clock (``MedeaSystem.run`` polls
``finished`` every cycle); ``lone_path``, a network holding one flit
(``NocFabric._step_lone`` declines); ``quiet``, the tile's quiet horizon
(zeroed before every tile step); ``router``, ``route_node``
(``_reference_route_mixed`` of ``tests/noc/test_switch_golden.py``);
``double``, a double op's two words in one visit (the L1 misses every
two-word lookup, so each double runs as its two word ops).
:func:`reference_machine` installs any subset for a ``with`` block (one
twin for a whole test: ``monkeypatch.setattr(*TWINS[twin])``); no switch
for any of them exists in ``src/``.  All but run-ahead keep the
schedule, so a run cut short under one of them alone is compared with
the kernel's state included.  Two skips have no seam and no twin, the
fabric's uncontended-switch bypass and the MPMMU's sleep in ``WAIT_DATA``;
their proofs stay where they are, the exhaustive per-switch test of
``tests/noc/test_switch_golden.py`` and the no-op census of
``tests/mpmmu/test_flit_by_flit.py``.

Two machines are compared on ``machine_state`` (``repro.system.state``):
one section per component (``component_state`` of ``repro.kernel.state``,
also the no-op censuses' per-step fingerprint), the fault layer, every
memory word and what the run reports.  :func:`first_divergence` bisects
runs cut short for the first cycle whose state differs and names the
field.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

import pytest

import repro.noc.network as network
import repro.system.medea as medea
from repro.errors import DeadlockError, SimulationError
from repro.kernel.simulator import NEVER, Simulator
from repro.kernel.state import changes
from repro.cache.l1 import L1Cache
from repro.noc.network import NocFabric
from repro.pe.processor import ProcessorNode
from repro.system.state import machine_state
from tests.noc.test_switch_golden import _reference_route_mixed

# -- the twins -----------------------------------------------------------------


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
                        f"condition (now {self.cycle})\n{self.report()}"
                    )
                if idle:
                    if not self._wakeups:
                        if until is None:
                            break
                        raise DeadlockError(
                            f"deadlock at cycle {self.cycle}: no active "
                            f"component, no wakeup\n{self.report()}"
                        )
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


def _run_per_cycle(system, max_cycles: int | None = None) -> int:
    start = system.sim.cycle
    budget = medea.DEFAULT_MAX_CYCLES if max_cycles is None else max_cycles
    system.sim.run(max_cycles=budget, until=system.finished)
    return system.sim.cycle - start


def _reference_router(node, row, inject, topology, eject_capacity, scratch,
                      port_mask=-1, productive=None, plans=None):
    flits = [flit for flit in row if flit is not None]
    return _reference_route_mixed(node, flits, inject, topology,
                                  eject_capacity, port_mask, productive)


_step = ProcessorNode.step
_lookup = L1Cache.lookup


def _word_lookup(cache, addr, is_write=False, count_miss=True, words=1):
    return None if words > 1 else _lookup(cache, addr, is_write, count_miss)


def _full_step(node, cycle) -> None:
    node._quiet_until = 0
    _step(node, cycle)


#: twin -> (where, what, its twin).
TWINS = {
    "kernel": (medea, "Simulator", ScanAllSimulator),
    "run_ahead": (medea.MedeaSystem, "run", _run_per_cycle),
    "lone_path": (NocFabric, "_step_lone", lambda fabric, cycle: False),
    "quiet": (ProcessorNode, "step", _full_step),
    "router": (network, "route_node", _reference_router),
    "double": (L1Cache, "lookup", _word_lookup),
}
ALL = tuple(TWINS)


@contextmanager
def reference_machine(twins=ALL):
    """The machine with ``twins`` (all six by default) installed."""
    with pytest.MonkeyPatch.context() as patch:
        for twin in twins:
            patch.setattr(*TWINS[twin])
        yield


# -- comparing two machines -------------------------------------------------------


def drive(driver, config, params, max_cycles=None, observer=None) -> bool:
    """An app driver (``run_jacobi``, ...) as an :func:`outcome` run."""
    return driver(config, params, max_cycles=max_cycles, observer=observer).validated


def outcome(run, max_cycles: int | None = None, schedule: bool = False) -> dict:
    """``machine_state`` after ``run(max_cycles, observer)`` — which builds
    a system, shows it to ``observer`` and runs it — with what the run
    returned under ``"outcome"``, or ``"cut short: <the error>"`` if
    ``max_cycles`` ran out first.  Any other error is raised."""
    seen = []
    try:
        result = run(max_cycles, seen.append)
    except SimulationError as error:
        if max_cycles is None or "max_cycles" not in str(error):
            raise
        result = f"cut short: {error}"
    return {**machine_state(seen[0], schedule), "outcome": result}


def _states(run, twins, max_cycles, schedule) -> tuple[dict, dict]:
    as_built = outcome(run, max_cycles, schedule)
    with reference_machine(twins):
        return as_built, outcome(run, max_cycles, schedule)


def first_divergence(run, stop: int, twins=ALL, schedule: bool = False) -> str:
    """Where ``run`` (an :func:`outcome` run, differing when cut short at
    ``stop`` cycles) first differs between the machine as built and the
    reference machine, as one line:
    ``cycle N: <component>.<field>: as-built X, reference Y``.

    Bisects the runs cut short at ``1 ... stop`` cycles for the first whose
    states differ; cycle N is the last one it stepped.
    """
    low, high = 0, stop
    while high - low > 1:
        middle = (low + high) // 2
        as_built, reference = _states(run, twins, middle, schedule)
        low, high = (low, middle) if as_built != reference else (middle, high)
    as_built, reference = _states(run, twins, high, schedule)
    path, mine, theirs = next(changes("", as_built, reference))
    others = [section for section, state in as_built.items()
              if state != reference[section] and not path.startswith(section)]
    return (f"cycle {high - 1}: {path}: as-built {_short(mine)}, reference "
            f"{_short(theirs)}"
            + (f" (also different: {', '.join(others)})" if others else ""))


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 240 else text[:237] + "..."


def assert_agree(run, twins=ALL, stop: int | None = None,
                 schedule: bool = False) -> dict:
    """``run`` (an :func:`outcome` run) ends in the same state as built and
    on the reference machine — cut short at ``stop`` cycles if given, which
    the run as built must not outlast; a mismatch fails with its
    :func:`first_divergence`.  Returns the as-built state."""
    as_built, reference = _states(run, twins, stop, schedule)
    assert stop is None or str(as_built["outcome"]).startswith("cut short"), (
        f"the run ended before the stop at {stop}: {as_built['outcome']}")
    if as_built != reference:
        end = stop or max(as_built["system"]["cycle"],
                          reference["system"]["cycle"])
        raise AssertionError(first_divergence(run, end, twins, schedule))
    return as_built
