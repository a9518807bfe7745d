"""MedeaSystem assembly and inspection."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, MemoryAccessError
from repro.kernel.trace import EJECT
from repro.mem.values import float_to_words
from repro.system.config import SystemConfig
from repro.system.medea import MPMMU_NODE, MedeaSystem
from tests.conftest import run_programs


def test_component_count_and_placement():
    system = MedeaSystem(SystemConfig(n_workers=3))
    # fabric + mpmmu + 3 workers
    assert len(system.sim.components) == 5
    assert system.mpmmu.ports.node == MPMMU_NODE
    assert [node.node_id for node in system.nodes] == [1, 2, 3]


def test_grid_autosizing():
    system = MedeaSystem(SystemConfig(n_workers=15))
    assert system.topology.width * system.topology.height >= 16


def test_load_programs_count_checked():
    system = MedeaSystem(SystemConfig(n_workers=2))
    with pytest.raises(ConfigError):
        system.load_programs([lambda ctx: iter(())])


def test_context_rank_binding():
    system = MedeaSystem(SystemConfig(n_workers=3))
    ctx = system.context_for(2)
    assert ctx.rank == 2
    assert ctx.node_id == 3
    assert ctx.empi is not None


def test_debug_read_private_prefers_cache():
    def program(ctx):
        yield ctx.store(ctx.private_base, 123)  # dirty, never flushed

    system = run_programs(SystemConfig(n_workers=1, cache_size_kb=4), program)
    assert system.ddr.store.read_word(system.map.private_base(0)) == 0
    assert system.debug_read_word(system.map.private_base(0)) == 123


def test_debug_read_shared_prefers_unique_dirty_copy():
    def writer(ctx):
        yield ctx.store(ctx.shared_base + 64, 55)  # dirty in L1 only

    def idle(ctx):
        yield ("compute", 5)

    system = run_programs(SystemConfig(n_workers=2, cache_size_kb=4),
                          writer, idle)
    assert system.debug_read_word(system.map.shared.base + 64) == 55


def test_debug_read_detects_protocol_violation():
    """Two dirty copies of one shared word = broken software coherence."""
    def writer_a(ctx):
        yield ctx.store(ctx.shared_base + 64, 1)
        yield from ctx.empi.barrier()

    def writer_b(ctx):
        yield from ctx.empi.barrier()
        yield ctx.store(ctx.shared_base + 64, 2)

    system = run_programs(SystemConfig(n_workers=2, cache_size_kb=4),
                          writer_a, writer_b)
    with pytest.raises(MemoryAccessError):
        system.debug_read_word(system.map.shared.base + 64)


def test_debug_read_double():
    value = 9.75

    def program(ctx):
        low, high = float_to_words(value)
        yield ctx.store(ctx.private_base, low)
        yield ctx.store(ctx.private_base + 4, high)

    system = run_programs(SystemConfig(n_workers=1, cache_size_kb=4), program)
    assert system.debug_read_double(system.map.private_base(0)) == value


def test_collect_stats_shape():
    def program(ctx):
        yield ctx.store(ctx.private_base, 1)

    system = run_programs(SystemConfig(n_workers=1, cache_size_kb=4), program)
    stats = system.collect_stats()
    assert "noc" in stats and "mpmmu" in stats
    assert len(stats["workers"]) == 1
    assert "cache" in stats["workers"][0]


def test_finished_requires_drained_everything():
    system = MedeaSystem(SystemConfig(n_workers=1))
    system.load_programs([lambda ctx: iter(())])
    assert not system.finished() or system.run() == 0
    system.run(max_cycles=100)
    assert system.finished()


def test_determinism_across_runs():
    """Identical configs + programs give identical cycle counts."""
    def build_and_run():
        def worker(ctx):
            yield ctx.store(ctx.private_base, 1)
            yield from ctx.empi.send_doubles((ctx.rank + 1) % 2, [1.0])
            __ = yield from ctx.empi.recv_doubles((ctx.rank + 1) % 2, 1)
            yield from ctx.empi.barrier()

        system = run_programs(SystemConfig(n_workers=2, cache_size_kb=4),
                              worker, worker)
        return system.cycle

    assert build_and_run() == build_and_run()


def test_trace_enabled_collects_ejections():
    def program(ctx):
        yield ("uload", ctx.shared_base)

    system = run_programs(SystemConfig(n_workers=1, trace=True), program)
    assert len(system.events.of_kind(EJECT)) > 0
    # Off by default: the fabric is never handed the log.
    system = run_programs(SystemConfig(n_workers=1), program)
    assert system.events.of_kind(EJECT) == []
