"""ProcessorNode: operation semantics and timing through tiny programs."""

from __future__ import annotations

import pytest

from repro.cache.l1 import WritePolicy
from repro.errors import MemoryAccessError, ProgramError
from repro.kernel.state import component_lines
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def solo(**overrides) -> SystemConfig:
    defaults = dict(n_workers=1, cache_size_kb=2)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def timestamps(program_body):
    """Run a single-worker program and return its note timestamps."""
    def program(ctx):
        yield from program_body(ctx)

    system = run_programs(solo(), program)
    return system.events.marks(system.rank_to_node[0])


def test_compute_occupies_exact_cycles():
    def body(ctx):
        yield ctx.note("t0")
        yield ("compute", 50)
        yield ctx.note("t1")

    marks = timestamps(body)
    # one cycle to land on the note boundary is acceptable jitter
    assert marks["t1"] - marks["t0"] == 50


def test_cached_load_hit_is_single_cycle():
    def body(ctx):
        yield ctx.store(ctx.private_base, 7)  # allocate the line
        yield ctx.note("t0")
        value = yield ctx.load(ctx.private_base)
        assert value == 7
        yield ctx.note("t1")

    marks = timestamps(body)
    assert marks["t1"] - marks["t0"] == 1


def test_load_miss_costs_a_round_trip():
    def body(ctx):
        yield ctx.note("t0")
        yield ctx.load(ctx.private_base)
        yield ctx.note("t1")

    marks = timestamps(body)
    miss_latency = marks["t1"] - marks["t0"]
    assert miss_latency > 30  # request + MPMMU service + 4 reply flits


def test_store_miss_write_allocates():
    def program(ctx):
        yield ctx.store(ctx.private_base, 5)
        value = yield ctx.load(ctx.private_base)
        assert value == 5

    system = run_programs(solo(), program)
    cache = system.nodes[0].cache.stats
    assert cache["write_misses"] == 1
    assert cache["read_hits"] == 1
    assert system.mpmmu.stats["served_block_read"] == 1


def test_write_through_stores_reach_memory_without_flush():
    def program(ctx):
        yield ctx.store(ctx.private_base + 8, 77)
        yield ("fence",)

    system = run_programs(solo(cache_policy="wt"), program)
    assert system.ddr.store.read_word(system.map.private_base(0) + 8) == 77
    assert system.nodes[0].cache.policy is WritePolicy.WRITE_THROUGH
    # No line was allocated: WT is no-write-allocate.
    assert system.nodes[0].cache.probe(system.map.private_base(0) + 8) is None


def test_write_through_hit_updates_line_clean():
    def program(ctx):
        base = ctx.private_base
        yield ctx.load(base)        # allocate via read miss
        yield ctx.store(base, 42)   # WT hit
        value = yield ctx.load(base)
        assert value == 42
        yield ("fence",)

    system = run_programs(solo(cache_policy="wt"), program)
    line = system.nodes[0].cache.probe(system.map.private_base(0))
    assert line is not None and not line.dirty
    assert system.ddr.store.read_word(system.map.private_base(0)) == 42


def test_write_buffer_stall_when_full():
    def program(ctx):
        for index in range(12):
            yield ("ustore", ctx.shared_base + 4 * index, index)
        yield ("fence",)

    system = run_programs(solo(write_buffer_depth=2), program)
    node = system.nodes[0]
    assert node.write_buffer_stalls > 0
    for index in range(12):
        assert system.ddr.store.read_word(4 * index) == index


@pytest.mark.parametrize("depth", [1, 4])
def test_posted_writes_never_exceed_the_write_buffer(depth):
    """The write buffer is the pipeline's own running count of posted
    jobs: a burst of write-through stores holds at most ``depth`` of
    them, and the core stalls only with the buffer full.  Sampled every
    cycle through the reference schedule, against a recount of the jobs."""
    from repro.system.medea import MedeaSystem

    def program(ctx):
        for index in range(24):
            yield ctx.store(ctx.private_base + 4 * index, index)
        yield ("fence",)

    system = MedeaSystem(solo(cache_policy="wt", write_buffer_depth=depth))
    system.load_programs([program])
    node = system.nodes[0]
    samples = []

    def sample_then_finished():
        in_pipeline = list(node._jobs) + [node._active_job]
        assert node._n_posted == sum(
            1 for job in in_pipeline if job is not None and job.tag == "posted"
        )
        samples.append((node._n_posted, node.write_buffer_stalls))
        return system.finished()

    system.sim.run(until=sample_then_finished)
    assert max(posted for posted, __ in samples) == depth
    assert node.write_buffer_stalls > 0  # 24 stores outrun either depth
    for (__, stalls_before), (posted, stalls) in zip(samples, samples[1:]):
        if stalls > stalls_before:
            assert posted == depth  # a stall leaves the buffer full
    assert samples[-1][0] == 0
    for index in range(24):
        assert system.ddr.store.read_word(
            system.map.private_base(0) + 4 * index
        ) == index


def test_flush_clean_line_is_cheap_noop():
    def body(ctx):
        yield ctx.note("t0")
        yield ("flush", ctx.private_base)  # nothing cached
        yield ctx.note("t1")

    marks = timestamps(body)
    assert marks["t1"] - marks["t0"] == 1


def test_flush_dirty_line_writes_back():
    def program(ctx):
        yield ctx.store(ctx.private_base, 9)
        yield ("flush", ctx.private_base)
        yield ("fence",)

    system = run_programs(solo(), program)
    assert system.ddr.store.read_word(system.map.private_base(0)) == 9
    line = system.nodes[0].cache.probe(system.map.private_base(0))
    assert line is not None and not line.dirty  # DHWB keeps the line


def test_invalidate_forces_refetch():
    def program(ctx):
        base = ctx.shared_base
        yield ("ustore", base, 1)
        yield ("fence",)
        value = yield ctx.load(base)    # cache the line (value 1)
        assert value == 1
        yield ("ustore", base, 2)       # memory changes behind the cache
        yield ("fence",)
        stale = yield ctx.load(base)
        assert stale == 1               # still the cached copy
        yield ("inval", base)
        fresh = yield ctx.load(base)
        assert fresh == 2

    system = run_programs(solo(), program)
    assert system.nodes[0].cache.stats["invalidations"] == 1


def test_scratchpad_ops():
    def program(ctx):
        yield ("lmem_write", 0x40, 123)
        value = yield ("lmem_read", 0x40)
        assert value == 123

    run_programs(solo(), program)


def test_unknown_op_raises_program_error():
    def program(ctx):
        yield ("warp_drive", 9)

    with pytest.raises(ProgramError):
        run_programs(solo(), program)


def test_foreign_private_access_rejected():
    def nosy(ctx):
        yield ctx.load(ctx.map.private_base(1))

    def victim(ctx):
        yield ("compute", 10)

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    with pytest.raises(Exception):
        run_programs(config, nosy, victim)


def test_a_double_below_mapped_memory_runs_word_by_word(doubles):
    """No segment holds it, so it takes the word path, whose first word
    the memory map refuses."""
    def program(ctx):
        yield ctx.load_double(-8)

    with pytest.raises(MemoryAccessError, match="address -0x8 below mapped"):
        run_programs(solo(), program)
    assert (doubles.fused, doubles.word_by_word) == ([], 1)


def test_message_round_trip_content():
    received = {}

    def sender(ctx):
        yield ctx.send_words(1, list(range(40)))

    def receiver(ctx):
        words = yield ctx.recv_words(0, 40)
        received["words"] = words

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    run_programs(config, sender, receiver)
    assert received["words"] == list(range(40))


def test_send_throughput_one_flit_per_cycle():
    def sender(ctx):
        yield ctx.note("t0")
        yield ctx.send_words(1, [0] * 32)
        yield ctx.note("t1")

    def receiver(ctx):
        yield ctx.recv_words(0, 32)

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    system = run_programs(config, sender, receiver)
    marks = system.events.marks(system.rank_to_node[0])
    duration = marks["t1"] - marks["t0"]
    assert 32 <= duration <= 48  # 1 flit/cycle + pipeline slack


def test_recv_before_send_blocks_then_completes():
    # Ordered on simulated time: only ops carry a cycle (see the
    # pe/program.py contract), so the marks are notes, not host-side
    # appends between yields.
    def early_receiver(ctx):
        yield ctx.note("recv_start")
        words = yield ctx.recv_words(0, 4)
        yield ctx.note("recv_done")
        assert words == [9, 9, 9, 9]

    def late_sender(ctx):
        yield ("compute", 300)
        yield ctx.note("send")
        yield ctx.send_words(1, [9, 9, 9, 9])

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    system = run_programs(config, late_sender, early_receiver)
    sender = system.events.marks(system.rank_to_node[0])
    receiver = system.events.marks(system.rank_to_node[1])
    assert sender["send"] == 300
    assert receiver["recv_start"] < sender["send"] < receiver["recv_done"]


def test_request_tokens_bypass_data_path():
    def sender(ctx):
        yield ctx.send_words(1, [5, 6])          # data stream
        yield ("sendreq", ctx.node_of(1), 0xAA)  # control token

    def receiver(ctx):
        src, word = yield ("recvreq",)
        assert word == 0xAA
        words = yield ctx.recv_words(0, 2)
        assert words == [5, 6]

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    run_programs(config, sender, receiver)


def test_long_message_engages_credit_flow_control():
    """A 64-word send spans 8 credit windows: credits must circulate."""
    def sender(ctx):
        yield ctx.send_words(1, list(range(64)))

    def receiver(ctx):
        words = yield ctx.recv_words(0, 64)
        assert words == list(range(64))

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    system = run_programs(config, sender, receiver)
    sender_tie = system.nodes[0].tie
    receiver_tie = system.nodes[1].tie
    assert receiver_tie.stats["credits_sent"] == 8
    assert sender_tie.stats["credits_received"] == 8
    # Conservation: credits are network flits too and all arrived.
    noc = system.fabric.stats
    assert noc["flits_injected"] == noc["flits_ejected"]


def test_done_node_is_drained():
    def program(ctx):
        yield ctx.store(ctx.private_base, 1)
        yield ("flush", ctx.private_base)

    system = run_programs(solo(), program)
    node = system.nodes[0]
    assert node.done
    assert node.drained
    assert system.finished()


def test_state_line_names_the_core_state():
    def program(ctx):
        yield ("compute", 5)

    system = run_programs(solo(), program)
    assert "  pe[0]: state=done, last_op=['end']" in component_lines(
        system.sim.components)
