"""``build_topology`` hands every system of one description the same
:class:`Topology`: the tests that sharing it is safe.

(a) nothing in ``src/`` writes to a shared topology, (b) a system on a
warm topology is the system on a cold one, alone or interleaved with
another, (c) a sweep pays one build per distinct topology — per worker
process on the pool — and (d) the cache is bounded.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    _make_program,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import run_space
from repro.dse.space import Axis, SweepSpace
from repro.faults import FaultPlan
from repro.noc.switch import _branch_plan
from repro.noc.topology import TOPOLOGY_CACHE_SIZE, build_topology
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.system.state import machine_state

sys.path.insert(
    0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "perf")
)
from workloads import WORKLOADS  # noqa: E402 - needs the path above


def allreduce(algorithm: str, n_values: int = 16) -> CollectiveBenchParams:
    return CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=n_values, repeats=1,
    )


#: One config per topology kind, each with something shared to disturb:
#: multicast plans on the grids, credit plans on the package.
KIND_CONFIGS = {
    "mesh": SystemConfig(
        n_workers=8, topology_kind="mesh", dma_tx_queue_depth=4
    ),
    "folded_torus": SystemConfig(n_workers=8, dma_tx_queue_depth=4),
    "chiplet": SystemConfig(
        n_workers=8, topology_kind="chiplet", chiplets=2, chiplet_grid=(2, 2),
        chiplet_link_latency=3, chiplet_link_width=2, dma_tx_queue_depth=4,
    ),
}


@pytest.fixture(autouse=True)
def _no_shared_topology_outlives_the_test():
    """The comparisons below read ``vars()`` of shared topologies, which
    gives each a real ``__dict__`` (CPython 3.11): slower for every later
    system of its description in this process.  They leave none behind."""
    yield
    build_topology.cache_clear()


# -- (a) nothing writes to a shared topology ----------------------------------


def quick(params):
    """A workload's parameters cut to one short operation."""
    if isinstance(params, JacobiParams):
        return replace(params, n=min(params.n, 18), iterations=1, warmup=0)
    return replace(params, repeats=1)


def test_no_run_writes_to_the_topology_it_shares():
    build_topology.cache_clear()
    runs = [
        (w.driver, w.config, quick(w.params)) for w in WORKLOADS
    ] + [
        # A link that dies mid-run: the rerouted tables are the fault
        # layer's own, built from the shared graph.
        (run_collective_bench,
         SystemConfig(n_workers=8, topology_kind="mesh",
                      faults=FaultPlan(seed=3, dead_links=[(1, 1, 200)])),
         allreduce("tree")),
        # Multicast-heavy: every broadcast leg is one replicated flit.
        (run_collective_bench, KIND_CONFIGS["chiplet"], allreduce("hw", 64)),
    ]
    used = []
    for driver, config, params in runs:
        result = driver(
            config, params,
            observer=lambda system: used.append((config, system.topology)),
        )
        assert result.validated
    # Rebuild every description from nothing and compare attribute by
    # attribute (tables, lazy latency tables, credit plans); the plan
    # table is a memo of a pure function, so recompute each entry.
    build_topology.cache_clear()
    pairs = {
        id(shared): (shared, MedeaSystem(config).topology)
        for config, shared in used
    }
    assert 1 < len(pairs) < len(runs)  # some were shared, not all alike
    for shared, fresh in pairs.values():
        assert shared is not fresh
        shared_vars, fresh_vars = dict(vars(shared)), dict(vars(fresh))
        plans = shared_vars.pop("mcast_plans")
        del fresh_vars["mcast_plans"]
        assert shared_vars == fresh_vars
        for key, plan in plans.items():
            mask, node = divmod(key, shared.n_nodes)
            assert plan == _branch_plan(
                node, mask, fresh.productive_table, fresh, {}
            )
    assert any(shared.mcast_plans for shared, __ in pairs.values())
    assert any(shared.credit_plans for shared, __ in pairs.values())


# -- (b) cold and warm builds are one machine ----------------------------------


def loaded_system(config: SystemConfig) -> MedeaSystem:
    system = MedeaSystem(config)
    params = allreduce("hw")
    system.load_programs([
        _make_program(params, rank, config.n_workers, {})
        for rank in range(config.n_workers)
    ])
    return system


@pytest.mark.parametrize("kind", KIND_CONFIGS)
def test_cold_and_warm_systems_are_the_same_machine(kind):
    config = KIND_CONFIGS[kind]
    build_topology.cache_clear()
    cold = loaded_system(config)
    cold.run()
    warm = loaded_system(config)
    assert warm.topology is cold.topology
    assert build_topology.cache_info()[:2] == (1, 1)  # hits, misses
    warm.run()
    assert machine_state(warm) == machine_state(cold)


@pytest.mark.parametrize("kind", KIND_CONFIGS)
def test_two_systems_on_one_topology_stepped_alternately(kind):
    config = KIND_CONFIGS[kind]

    def advance(system):
        if not system.finished():
            system.sim.run(max_cycles=37)

    alone = loaded_system(config)
    while not alone.finished():
        advance(alone)
    first, second = loaded_system(config), loaded_system(config)
    assert first.topology is second.topology is alone.topology
    assert alone.topology.mcast_plans  # the memo all three filled and read
    while not (first.finished() and second.finished()):
        advance(first)
        advance(second)
    assert machine_state(first) == machine_state(second) == machine_state(alone)
    # ... and every TIE owns its credit plan.
    plans = [node.tie.credit_plan for node in first.nodes + second.nodes]
    assert len({id(plan) for plan in plans}) == len(plans)
    assert all(
        plan is not shared
        for plan in plans for shared in alone.topology.credit_plans.values()
    )


# -- (c) a sweep builds each topology once ----------------------------------------


def building_app(config, params) -> dict:
    """Build the point's system; report the worker's cache counters."""
    system = MedeaSystem(config)
    info = build_topology.cache_info()
    return {
        "pid": os.getpid(), "hits": info.hits, "misses": info.misses,
        "topology": (config.topology_kind, system.topology.n_nodes),
    }


def two_by_three(name: str) -> SweepSpace:
    return SweepSpace(
        name=name, app=building_app,
        axes=(
            Axis("kind", ("mesh", "folded_torus"), field="topology_kind"),
            Axis("cache", (2, 4, 8), field="cache_size_kb"),
        ),
        base_config=SystemConfig(n_workers=8),
    )


def test_an_inline_sweep_builds_each_topology_once():
    build_topology.cache_clear()
    run_space(two_by_three("cache-inline"), backend="inline", jobs=1)
    info = build_topology.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)


def test_a_pool_worker_keeps_its_topologies_across_points():
    build_topology.cache_clear()  # forked workers start as cold as we are
    results = run_space(two_by_three("cache-pool"), backend="process", jobs=2)
    by_worker: dict[int, list[dict]] = {}
    for payload in results.payloads():
        by_worker.setdefault(payload["pid"], []).append(payload)
    assert os.getpid() not in by_worker
    for points in by_worker.values():
        last = max(points, key=lambda payload: payload["hits"] + payload["misses"])
        assert last["hits"] + last["misses"] == len(points)
        assert last["misses"] == len({tuple(p["topology"]) for p in points})
    # Six points, two topologies, at most two workers: somebody hit.
    assert sum(
        max(p["hits"] for p in points) for points in by_worker.values()
    ) >= 2
    assert build_topology.cache_info().misses == 0  # none built here


# -- (d) the cache is bounded -------------------------------------------------------


def test_the_cache_is_bounded_and_an_evicted_topology_is_rebuilt_equal():
    build_topology.cache_clear()
    first = build_topology("mesh", 2)
    for n_nodes in range(3, 3 + TOPOLOGY_CACHE_SIZE):
        build_topology("mesh", n_nodes)
    info = build_topology.cache_info()
    assert info.maxsize == info.currsize == TOPOLOGY_CACHE_SIZE
    assert info.misses == TOPOLOGY_CACHE_SIZE + 1
    again = build_topology("mesh", 2)  # the least recently used went
    assert again is not first and vars(again) == vars(first)
    assert build_topology.cache_info().misses == TOPOLOGY_CACHE_SIZE + 2
    assert build_topology("mesh", 2) is again
