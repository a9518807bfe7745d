"""Shared-memory synchronization (pure-SM toolbox)."""

from __future__ import annotations

import pytest

from repro.empi.smsync import SharedMemoryBarrier, SharedMemoryLock
from repro.errors import ProgramError
from repro.mem.memory_map import MemoryMap
from repro.pe.costmodel import FpCostModel
from repro.pe.program import ProgramContext
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def make_ctx() -> ProgramContext:
    return ProgramContext(
        rank=0, n_workers=2, node_id=1,
        memory_map=MemoryMap(2), cost=FpCostModel(),
        rank_to_node={0: 1, 1: 2},
    )


def test_lock_requires_shared_address():
    ctx = make_ctx()
    with pytest.raises(ProgramError):
        SharedMemoryLock(ctx, ctx.map.private_base(0))


def test_barrier_requires_shared_address():
    ctx = make_ctx()
    with pytest.raises(ProgramError):
        SharedMemoryBarrier(ctx, ctx.map.private_base(0))


def test_sm_lock_mutual_exclusion():
    order = []

    def program(ctx):
        lock = SharedMemoryLock(ctx, ctx.shared_base + 32)
        yield from ctx.empi.barrier()
        yield from lock.acquire()
        order.append(("in", ctx.rank))
        yield ("compute", 100)
        order.append(("out", ctx.rank))
        yield from lock.release()

    run_programs(SystemConfig(n_workers=2, cache_size_kb=2),
                 program, program)
    assert [kind for kind, __ in order] == ["in", "out", "in", "out"]


@pytest.mark.parametrize("n_workers", [2, 4])
def test_sm_barrier_synchronizes(n_workers):
    events = []

    def make_program(stagger):
        def program(ctx):
            barrier = SharedMemoryBarrier(ctx, ctx.shared_base)
            for round_index in range(2):
                yield ("compute", 1 + stagger * 53)
                events.append(("enter", round_index, ctx.rank))
                yield from barrier.wait()
                events.append(("leave", round_index, ctx.rank))
        return program

    run_programs(SystemConfig(n_workers=n_workers, cache_size_kb=2),
                 *[make_program(rank) for rank in range(n_workers)])
    for round_index in range(2):
        enters = [i for i, e in enumerate(events)
                  if e[0] == "enter" and e[1] == round_index]
        leaves = [i for i, e in enumerate(events)
                  if e[0] == "leave" and e[1] == round_index]
        assert max(enters) < min(leaves)


def test_sm_barrier_single_worker():
    def program(ctx):
        barrier = SharedMemoryBarrier(ctx, ctx.shared_base, n_workers=1)
        yield from barrier.wait()
        yield ctx.note("past")

    system = run_programs(SystemConfig(n_workers=1, cache_size_kb=2), program)
    assert "past" in system.events.marks(system.rank_to_node[0])


def test_sm_barrier_generates_mpmmu_traffic():
    """The point of the experiment: SM sync hammers the memory node."""
    def program(ctx):
        barrier = SharedMemoryBarrier(ctx, ctx.shared_base)
        yield from barrier.wait()

    system = run_programs(SystemConfig(n_workers=3, cache_size_kb=2),
                          program, program, program)
    stats = system.mpmmu.stats
    assert stats["served_lock"] >= 3
    assert stats["served_unlock"] == 3
    assert stats["served_single_read"] >= 3  # counter reads + flag polls
    # And zero message traffic anywhere.
    for node in system.nodes:
        assert node.tie.stats.get("data_flits_sent", 0) == 0
        assert node.tie.stats.get("requests_sent", 0) == 0


@pytest.mark.parametrize("path", ["mailbox", "barrier"])
def test_poll_backoff_reaches_the_barrier_and_every_mailbox(path):
    """One ``poll_backoff`` on the arena paces both of its spin loops:
    a rank waiting 3 000 cycles for its peer polls fewer times at a
    longer backoff, on the mailbox path as on the barrier path."""
    from repro.empi.collectives import make_comm

    def waiter_polls(backoff):
        def late(ctx):
            comm = make_comm(ctx, "pure_sm", p2p_values=4, poll_backoff=backoff)
            yield ("compute", 3000)
            if path == "mailbox":
                yield from comm.send(1, [1.0, 2.0, 3.0, 4.0])
            else:
                yield from comm.barrier()

        def waiter(ctx):
            comm = make_comm(ctx, "pure_sm", p2p_values=4, poll_backoff=backoff)
            if path == "mailbox":
                assert (yield from comm.recv(0, 4)) == [1.0, 2.0, 3.0, 4.0]
            else:
                yield from comm.barrier()

        system = run_programs(SystemConfig(n_workers=2), late, waiter)
        return system.nodes[1].stats.get("ops_uload")

    assert waiter_polls(24) > 2 * waiter_polls(200)
