"""Determinism guard for the active-set kernel refactor.

The kernel's explicit active set (a bit mask that wake/sleep maintain,
stepped lowest bit first) must not introduce any iteration-order
dependence: two identical runs of the 8-worker Jacobi reference
configuration have to agree on every cycle count and every statistic, bit
for bit.  This is the test that fails first if step ordering, worklist
sets, or batched counter flushing ever become nondeterministic.
"""

from __future__ import annotations

from functools import partial

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.apps.matmul import MatmulParams, run_matmul
from repro.apps.stream import StreamParams, run_stream
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from tests.reference_machine import drive, outcome


def replays(driver, config, params) -> dict:
    """One point, run twice: it validates, and both runs end in the same
    ``machine_state`` (cycles, every counter, event and memory word)."""
    run = partial(drive, driver, config, params)
    first = outcome(run)
    assert first["outcome"] is True
    assert outcome(run) == first
    return first


def test_double_run_is_bit_identical():
    replays(run_jacobi, SystemConfig(n_workers=8, cache_size_kb=16),
            JacobiParams(n=12, iterations=3, warmup=1))


def test_wt_policy_double_run_is_bit_identical():
    # The write-through config saturates the MPMMU and exercises the
    # fabric worklist under heavy contention.
    replays(run_jacobi,
            SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wt"),
            JacobiParams(n=10, iterations=2, warmup=0))


def test_matmul_double_run_is_bit_identical():
    # The collective-heavy workload: broadcast + reduce traffic through
    # the TIE streams must replay identically, stats and all.
    config = SystemConfig(n_workers=4, cache_size_kb=16)
    params = MatmulParams(n=6, tile=2, model="empi", algorithm="tree")
    first = run_matmul(config, params)
    second = run_matmul(config, params)
    assert first.validated and second.validated
    assert first.value == second.value
    assert first.total_cycles == second.total_cycles
    assert (first.stage_cycles, first.compute_cycles, first.reduce_cycles) == (
        second.stage_cycles, second.compute_cycles, second.reduce_cycles
    )
    assert first.stats["noc"] == second.stats["noc"]
    assert first.stats["mpmmu"] == second.stats["mpmmu"]
    assert first.stats["workers"] == second.stats["workers"]


def test_stream_double_run_is_bit_identical():
    # The pipelined producer/consumer workload: scatter/bcast bookends
    # plus per-block streaming over the TIE message path.
    config = SystemConfig(n_workers=4, cache_size_kb=16)
    params = StreamParams(n_blocks=4, block_values=8, model="empi")
    first = run_stream(config, params)
    second = run_stream(config, params)
    assert first.validated and second.validated
    assert first.total_cycles == second.total_cycles
    assert first.cycles_per_block == second.cycles_per_block
    assert first.stats["noc"] == second.stats["noc"]
    assert first.stats["mpmmu"] == second.stats["mpmmu"]
    assert first.stats["workers"] == second.stats["workers"]


def test_fault_injection_double_run_is_bit_identical():
    # The fault layer's seeded RNG joins the determinism contract: two
    # runs of the same FaultPlan must inject the same faults at the same
    # cycles and recover through the same retransmissions.
    plan = FaultPlan(
        seed=11, drop_rate=0.02, corrupt_rate=0.01, stalls=((4, 300, 50),)
    )
    state = replays(
        run_collective_bench,
        SystemConfig(n_workers=8, topology_kind="mesh", faults=plan),
        CollectiveBenchParams(collective="allreduce", model="empi",
                              algorithm="tree", n_values=8, repeats=2),
    )
    assert state["system"]["stats"]["faults"]["dropped"] > 0  # they fired


def test_fault_injector_trace_replays_identically():
    # Same seed, same machine: the injector's raw event trace (what was
    # dropped/corrupted, where, when) is itself bit-identical.
    from repro.empi.collectives import make_comm
    from repro.kernel.trace import FAULT
    from repro.system.medea import MedeaSystem

    def make_program(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "tree", max_values=4)
            yield from comm.allreduce([float(rank)] * 4)
        return program

    def run_once():
        plan = FaultPlan(seed=7, drop_rate=0.2)
        config = SystemConfig(n_workers=4, faults=plan)
        system = MedeaSystem(config)
        system.load_programs([make_program(r) for r in range(4)])
        cycles = system.run(max_cycles=2_000_000)
        return cycles, system.events.of_kind(FAULT)

    first_cycles, first_trace = run_once()
    second_cycles, second_trace = run_once()
    assert first_trace  # faults actually fired
    assert first_cycles == second_cycles
    assert first_trace == second_trace
