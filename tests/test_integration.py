"""Cross-module integration: protocol sequences, mixed traffic, determinism."""

from __future__ import annotations

import pytest

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.kernel.trace import EJECT
from repro.noc.packet import PacketType
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def test_write_protocol_sequence_matches_fig4a():
    """Trace a single write: Req -> Ack -> Data -> Ack (paper Fig. 4a)."""
    def program(ctx):
        yield ("ustore", ctx.shared_base, 7)
        yield ("fence",)

    system = run_programs(SystemConfig(n_workers=1, trace=True), program)
    ejections = [
        event for event in system.events.of_kind(EJECT)
        if event.payload[0] == PacketType.SINGLE_WRITE.name
    ]
    # Four single-write flits cross the network: the request and the data
    # word toward the MPMMU, the grant and the final ack back.
    nodes = [event.tile for event in ejections]
    assert len(ejections) == 4
    assert nodes == [0, 1, 0, 1]  # MPMMU, core, MPMMU, core


def test_read_protocol_sequence_matches_fig4b():
    """A read is Req -> Data with no grant round trip (paper Fig. 4b)."""
    def program(ctx):
        yield ("uload", ctx.shared_base)

    system = run_programs(SystemConfig(n_workers=1, trace=True), program)
    ejections = [
        event for event in system.events.of_kind(EJECT)
        if event.payload[0] == PacketType.SINGLE_READ.name
    ]
    assert len(ejections) == 2
    assert [e.tile for e in ejections] == [0, 1]


def test_cache_miss_issues_block_read_of_four_words():
    def program(ctx):
        yield ctx.load(ctx.private_base)

    system = run_programs(SystemConfig(n_workers=1, trace=True), program)
    data_flits = [
        event for event in system.events.of_kind(EJECT)
        if event.payload[0] == PacketType.BLOCK_READ.name
        and event.tile != 0
    ]
    assert len(data_flits) == 4  # one cache line = four words


def test_shared_memory_and_messages_coexist():
    """Both traffic classes in flight at once, everything stays coherent."""
    outcome = {}

    def chatty_writer(ctx):
        for index in range(8):
            yield ctx.store(ctx.shared_base + 64 + 4 * index, index + 1)
        yield from ctx.flush_range(ctx.shared_base + 64, 32)
        yield from ctx.empi.send_doubles(1, [1.0, 2.0])
        yield from ctx.empi.barrier()

    def chatty_reader(ctx):
        values = yield from ctx.empi.recv_doubles(0, 2)
        yield from ctx.empi.barrier()
        words = []
        for index in range(8):
            word = yield ("uload", ctx.shared_base + 64 + 4 * index)
            words.append(word)
        outcome["doubles"] = values
        outcome["words"] = words

    run_programs(SystemConfig(n_workers=2, cache_size_kb=4),
                 chatty_writer, chatty_reader)
    assert outcome["doubles"] == [1.0, 2.0]
    assert outcome["words"] == list(range(1, 9))


def test_jacobi_determinism_across_processes():
    """The simulator is deterministic: same config -> same cycle count."""
    config = SystemConfig(n_workers=3, cache_size_kb=4)
    params = JacobiParams(n=12, iterations=2, warmup=0)
    first = run_jacobi(config, params)
    second = run_jacobi(config, params)
    assert first.total_cycles == second.total_cycles
    assert first.iteration_cycles == second.iteration_cycles


def test_jacobi_cycles_differ_between_policies_not_results():
    config_wb = SystemConfig(n_workers=2, cache_size_kb=4)
    config_wt = SystemConfig(n_workers=2, cache_size_kb=4, cache_policy="wt")
    params = JacobiParams(n=10, iterations=2, warmup=0)
    wb = run_jacobi(config_wb, params)
    wt = run_jacobi(config_wt, params)
    assert wb.validated and wt.validated  # identical numerics...
    assert wb.total_cycles != wt.total_cycles  # ...different timing


def test_arbiter_priority_changes_message_latency():
    """Under bridge/TIE contention, the HP class observably wins.

    Rank 0 dirties four cache lines, flushes them (16 block-write data
    flits through the memory path) and immediately streams a 64-word
    message.  With messages high-priority the receiver gets the payload
    earlier than with memory high-priority.
    """
    def run_with_priority(priority: str) -> int:
        def pusher(ctx):
            for line in range(4):
                yield ctx.store(ctx.shared_base + 64 + 16 * line, line)
            for line in range(4):
                yield ("flush", ctx.shared_base + 64 + 16 * line)
            yield ctx.send_words(1, list(range(64)))
            yield from ctx.empi.barrier()

        def puller(ctx):
            words = yield ctx.recv_words(0, 64)
            assert words == list(range(64))
            yield ctx.note("got_message")
            yield from ctx.empi.barrier()

        config = SystemConfig(
            n_workers=2, cache_size_kb=4,
            arbiter_mode="dual_fifo", arbiter_high_priority=priority,
        )
        system = run_programs(config, pusher, puller)
        return system.events.marks(system.rank_to_node[1])["got_message"]

    assert run_with_priority("message") < run_with_priority("memory")


def test_larger_system_scales_down_iteration_time():
    params = JacobiParams(n=24, iterations=3, warmup=1)
    two = run_jacobi(SystemConfig(n_workers=2, cache_size_kb=16), params)
    eight = run_jacobi(SystemConfig(n_workers=8, cache_size_kb=16), params)
    assert eight.cycles_per_iteration < two.cycles_per_iteration


def test_noc_stats_account_for_all_traffic():
    config = SystemConfig(n_workers=2, cache_size_kb=2)
    result = run_jacobi(config, JacobiParams(n=8, iterations=2, warmup=0))
    noc = result.stats["noc"]
    assert noc["flits_injected"] == noc["flits_ejected"]


@pytest.mark.parametrize("n_workers", [13, 15])
def test_large_configurations_run(n_workers):
    """The paper's largest systems (up to 15 workers + MPMMU) work."""
    config = SystemConfig(n_workers=n_workers, cache_size_kb=8)
    result = run_jacobi(config, JacobiParams(n=16, iterations=2, warmup=0))
    assert result.validated
