"""Shared fixtures and helpers for the MEDEA test suite."""

from __future__ import annotations

import sys
from collections.abc import Callable, Generator
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import repro.pe.processor as processor
from repro.cache.l1 import L1Cache
from repro.noc.flit import MULTICAST_DST
from repro.noc.network import NocFabric
from repro.pe.processor import CoreState, ProcessorNode
from repro.pe.tie import CREDIT_WINDOW, MCAST, UNICAST
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


def run_programs(
    config: SystemConfig,
    *programs: Callable[..., Generator],
    max_cycles: int = 2_000_000,
) -> MedeaSystem:
    """Build a system, run one program per worker, return it for inspection.

    A default no-progress watchdog is armed on every run (unless the
    test configured its own): a protocol regression that live-locks the
    machine then fails fast with a structured progress report instead of
    spinning the suite to ``max_cycles``.  The watchdog only reads state,
    so simulated cycle counts are unaffected.
    """
    assert len(programs) == config.n_workers
    if config.watchdog_cycles == 0:
        config = config.with_changes(watchdog_cycles=500_000)
    system = MedeaSystem(config)
    system.load_programs(list(programs))
    system.run(max_cycles=max_cycles)
    return system


def assert_streams_conserved(system) -> None:
    """Credits issued = credits consumed, on every stream of a finished run.

    For every send window of every tile: each member's floor equals what
    that member's receive stream has credited, less than one credit
    window is left unacknowledged, and the retransmit buffer holds
    nothing the slowest member has credited past.
    """
    ties = {node.node_id: node.tie for node in system.nodes}
    for node_id, tie in ties.items():
        for dst, window in tie.windows.items():
            channel = MCAST if dst == MULTICAST_DST else UNICAST
            where = f"tie[{node_id}] window->{dst}"
            floors = []
            for member in window.members:
                stream = ties[member].rx[channel].get(node_id)
                upto = stream.credited_upto if stream is not None else 0
                floor = window.credited.get(member, 0)
                assert floor == upto, f"{where}: member {member}"
                assert window.next_slot - floor < CREDIT_WINDOW, where
                floors.append(floor)
            assert not window.queued, where
            assert all(
                slot >= min(floors, default=0) for slot in window.retx
            ), where


@pytest.fixture
def lone_path(monkeypatch) -> SimpleNamespace:
    """A spy on ``NocFabric._step_lone``, the fabric's lone-flit path.

    ``returned`` is what it returned, call by call — ``[True]`` after a
    step the path took, ``[False]`` after one it looked at and declined,
    ``[]`` after one that never reached it; ``latched`` lists the cycles
    of the steps it took that left the flit in the network.  Inside
    ``with lone_path.decline():`` it is the path's twin instead — it declines
    every step, touching nothing — and records nothing.
    """
    seen = SimpleNamespace(returned=[], latched=[], declining=False)
    real = NocFabric._step_lone

    @contextmanager
    def decline():
        seen.declining = True
        try:
            yield
        finally:
            seen.declining = False

    seen.decline = decline

    def spy(fabric, cycle):
        if seen.declining:
            return False
        done = real(fabric, cycle)
        seen.returned.append(done)
        if done and fabric.flits_in_network:
            seen.latched.append(cycle)
        return done

    monkeypatch.setattr(NocFabric, "_step_lone", spy)
    return seen


class _Watched(int):
    """A quiet horizon of equal value that is recognisably this object."""


@pytest.fixture
def quiet_steps(monkeypatch) -> SimpleNamespace:
    """A spy on the quiet arm of ``ProcessorNode.step`` (first lines).

    ``taken`` counts the steps the arm took, by kind — ``"stalled"`` (a
    credit-stalled ``WAIT_TX`` cycle), ``"running"`` and ``"blocked"``
    (the two re-issued sleeps); ``full`` counts the steps that ran all
    six phases; ``cycles`` lists ``(cycle, tile name)`` of the taken ones.
    A step inside a horizon is known to have taken the arm by what it
    leaves behind: the arm writes nothing to the horizon, anything else
    clears it first.
    """
    seen = SimpleNamespace(
        taken={"stalled": 0, "running": 0, "blocked": 0}, full=0, cycles=[]
    )
    real = ProcessorNode.step

    def spy(node, cycle):
        if cycle >= node._quiet_until:
            seen.full += 1
            return real(node, cycle)
        node._quiet_until = watched = _Watched(node._quiet_until)
        real(node, cycle)
        if node._quiet_until is not watched:
            seen.full += 1
            return
        node._quiet_until = int(watched)
        state = node.state
        seen.taken[
            "stalled" if state is CoreState.WAIT_TX else
            "running" if state is CoreState.RUNNING else "blocked"
        ] += 1
        seen.cycles.append((cycle, node.name))

    monkeypatch.setattr(ProcessorNode, "step", spy)
    return seen


@pytest.fixture
def doubles(monkeypatch) -> SimpleNamespace:
    """A spy on the double ops of ``ProcessorNode._execute``.

    ``fused`` lists the cycles, on the core's own clock, at which a double
    ran both its words in one visit (the L1 hit a two-word lookup);
    ``word_by_word`` counts the doubles that ran as their two word ops.
    """
    seen = SimpleNamespace(fused=[], word_by_word=0)
    lookup = L1Cache.lookup
    word_ops = processor.word_ops

    def spy_lookup(cache, addr, is_write=False, count_miss=True, words=1):
        line = lookup(cache, addr, is_write, count_miss, words)
        if words > 1 and line is not None:
            seen.fused.append(sys._getframe(1).f_locals["now"])
        return line

    def spy_words(op):
        seen.word_by_word += 1
        return word_ops(op)

    monkeypatch.setattr(L1Cache, "lookup", spy_lookup)
    monkeypatch.setattr(processor, "word_ops", spy_words)
    return seen


@pytest.fixture
def tiny_config() -> SystemConfig:
    """Two workers, small caches — the cheapest interesting machine."""
    return SystemConfig(n_workers=2, cache_size_kb=2)
