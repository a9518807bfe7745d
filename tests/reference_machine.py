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

Two machines are compared on :func:`machine_state`: one section per
component (:func:`component_state`, also the no-op censuses' per-step
fingerprint), the fault layer, every memory word and what the run
reports.  :func:`first_divergence` bisects runs cut short for the first
cycle whose state differs and names the field.
"""

from __future__ import annotations

import heapq
import random
from collections import deque, namedtuple
from contextlib import contextmanager
from enum import Enum
from operator import attrgetter, methodcaller

import pytest

import repro.noc.network as network
import repro.system.medea as medea
from repro.errors import DeadlockError, SimulationError
from repro.kernel.simulator import NEVER, Simulator
from repro.kernel.stats import CounterSet, LatencyStat
from repro.cache.l1 import L1Cache
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.pe.processor import ProcessorNode
from repro.telemetry.attribution import build_report, render_report
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


# -- the machine's state -------------------------------------------------------

#: Attributes no section reads: the schedule (``active`` is the kernel
#: section's) and the quiet arm's bookkeeping, uids (a flit's come from a
#: process-wide counter), references back into the machine (each part is
#: read where it is owned), the static build, bulk memory (the ``memory``
#: section) and the host-side branch-plan cache.
_NOT_STATE = frozenset({
    "active", "_quiet_until", "_acted_at", "uid",
    "sim", "fabric", "owner", "tie", "dma", "injector", "faults", "clock",
    "events", "topology", "map", "lut", "codec", "_bound", "_lone_bound",
    "_sets", "store", "mcast_plans",
})
_SCALARS = frozenset({type(None), bool, int, float, str})
_CONVERTERS: dict = {}  # type -> _converter(type): the censuses run per step


def plain(value):
    """``value`` as data two machines can be compared on: a counter set as
    its dict but for the arbiter's ``port_busy_cycles`` (visits that found
    the port busy: a tile asleep is not visited), any other object as a
    dict of its attributes but the ``_NOT_STATE`` ones and bound methods."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind not in _CONVERTERS:
        _CONVERTERS[kind] = _converter(kind)
    return _CONVERTERS[kind](value)


def _converter(kind: type):
    if issubclass(kind, (int, float, str, Enum, set, frozenset)):
        return lambda value: value
    if kind is Flit:  # the commonest object: one call, named fields
        fields = [name for name in Flit.__slots__ if name not in _NOT_STATE]
        read, flit = attrgetter(*fields), namedtuple("flit", fields)
        return lambda value: flit(*read(value))
    if issubclass(kind, (CounterSet, LatencyStat)):
        return lambda value: {key: count for key, count in value.as_dict().items()
                              if key != "port_busy_cycles"}
    if issubclass(kind, random.Random):
        return methodcaller("getstate")
    if issubclass(kind, dict):
        return lambda value: {key: plain(item) for key, item in value.items()}
    if issubclass(kind, (list, tuple, deque)):
        return lambda value: [plain(item) for item in value]
    names = [name for name in getattr(kind, "__slots__", ())
             if name not in _NOT_STATE]
    if names:
        return lambda value: {name: plain(item) for name in names
                              if not callable(item := getattr(value, name))}
    return lambda value: {
        name: plain(item) for name, item in vars(value).items()
        if name not in _NOT_STATE and not callable(item)
    }


def component_state(component) -> dict:
    """Everything a step of ``component`` can change but whether it is
    awake afterwards, the quiet arm's two integers and its bulk memory."""
    state = plain(component)
    for part in ("tie", "dma"):  # a tile's own, which its agent points at
        if hasattr(component, part):
            state[part] = plain(getattr(component, part))
    return state


def machine_state(system, schedule: bool = False) -> dict:
    """The kernel's active set, mask and pending wake-ups (``schedule``
    only), one section per component in phase order, the fault layer,
    every memory word and what the run reports."""
    stats = system.collect_stats()  # folds the batched counters in first
    sim = system.sim
    state = {"kernel": {
        "active": [comp.name for comp in sim.components if comp.active],
        "mask": [comp.name for comp in sim.components if sim._active & comp._bit],
        "wakeups": sorted((cycle, comp.name) for cycle, __, comp in sim._wakeups),
    }} if schedule else {}
    for component in (system.fabric, system.mpmmu, *system.nodes):
        state[component.name] = component_state(component)
    state["faults"] = plain(system.injector)
    state["memory"] = {
        "ddr": dict(system.ddr.store._words),
        "mpmmu": plain(system.mpmmu.cache._sets),
        **{node.name: {"l1": plain(node.cache._sets),
                       "lmem": dict(node.scratchpad.store._words)}
           for node in system.nodes},
    }
    registry = system.telemetry
    state["system"] = {
        "cycle": system.cycle, "stats": stats,
        "report": render_report(build_report(system, workload="run")),
        "samples": None if registry is None else list(registry.samples),
        "program_events": list(system.events.program),
        "ring_events": [  # the key of an EJECT is a flit uid
            (event.cycle, event.tile, event.kind, event.payload)
            for event in system.events.ring
        ],
    }
    return state


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


def _difference(path: str, as_built, reference):
    """The first field at which two plain values differ, descending into
    dicts, flits and equal-length lists: ``(path, as built, reference)``."""
    if hasattr(as_built, "_asdict") and type(as_built) is type(reference):
        as_built, reference = as_built._asdict(), reference._asdict()
    if isinstance(as_built, dict) and isinstance(reference, dict):
        pairs = [(f"{path}.{key}" if path else str(key),
                  as_built.get(key, "<absent>"), reference.get(key, "<absent>"))
                 for key in {**as_built, **reference}]
    elif (isinstance(as_built, list) and isinstance(reference, list)
          and len(as_built) == len(reference)):
        pairs = [(f"{path}[{index}]", *pair)
                 for index, pair in enumerate(zip(as_built, reference))]
    else:
        return path, as_built, reference
    return next((_difference(*pair) for pair in pairs if pair[1] != pair[2]),
                (path, as_built, reference))


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
    path, mine, theirs = _difference("", as_built, reference)
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
