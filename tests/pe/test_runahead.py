"""Core run-ahead is exact: every observer sees the per-cycle schedule.

``Simulator.run(until=<callable>)`` polls ``until`` on every cycle, so
``Simulator.horizon`` follows the clock and no core runs ahead: that
schedule *is* the cycle-by-cycle reference.  ``MedeaSystem.run`` polls
only when idle, so cores run ahead of the clock over L1 hits, FP ops and
scratchpad accesses.  Everything a run reports must agree between the
two, bit for bit: ``machine_state``; this per-cycle schedule is the
``run_ahead`` twin of ``tests/reference_machine.py``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cache.l1 import LINE_BYTES
from repro.faults import FaultPlan
from repro.pe.processor import CoreState
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.telemetry.config import TelemetryConfig
from repro.system.state import machine_state
from tests.reference_machine import assert_agree

#: Bytes between two addresses of one cache set (2 kB, 16 B lines, 2 ways).
SET_STRIDE = 1024
BUDGET = 200_000


def build(config: SystemConfig, programs) -> MedeaSystem:
    system = MedeaSystem(config)
    system.load_programs(list(programs))
    return system


def run_ahead(system: MedeaSystem) -> None:
    system.run(max_cycles=BUDGET)


def run_per_cycle(system: MedeaSystem) -> None:
    system.sim.run(max_cycles=BUDGET, until=system.finished)


def stop_ahead(system: MedeaSystem, cycles: int) -> None:
    system.sim.run(max_cycles=cycles)


# -- the traps, one by one -----------------------------------------------------


def solo(**overrides) -> SystemConfig:
    return SystemConfig(**{"n_workers": 1, "cache_size_kb": 2, **overrides})


def warm_then_local_ops(ctx):
    """One miss, then 40 cycles of nothing but core-local ops."""
    yield ctx.store(ctx.private_base, 1)
    yield ctx.note("warm")
    for __ in range(10):
        yield ctx.load(ctx.private_base)
        yield ("compute", 3)


def test_program_end_reached_ahead_finishes_on_its_exact_cycle():
    system = build(solo(), [warm_then_local_ops])
    reference = build(solo(), [warm_then_local_ops])
    run_per_cycle(reference)
    stop_ahead(system, reference.sim.cycle - 5)
    marks = system.events.marks(system.rank_to_node[0])
    assert marks["warm"] < system.sim.cycle  # stopped inside the local run
    # The generator is exhausted already; the core is not done yet.
    assert system.nodes[0].state is CoreState.RUNNING
    assert not system.finished()
    run_ahead(system)
    assert system.nodes[0].state is CoreState.DONE
    assert system.sim.cycle == reference.sim.cycle
    assert machine_state(system) == machine_state(reference)


def test_miss_found_ahead_is_counted_once_on_its_issue_cycle():
    def program(ctx):
        yield ctx.store(ctx.private_base, 1)
        yield ctx.note("warm")
        yield ("compute", 20)
        yield ctx.load(ctx.private_base + 64)  # another line: a miss

    system = build(solo(), [program])
    run_ahead(system)
    warm = system.events.marks(system.rank_to_node[0])["warm"]

    system = build(solo(), [program])
    stop_ahead(system, warm + 10)  # inside the compute, miss already found
    assert system.nodes[0].cache.stats["read_misses"] == 0
    stop_ahead(system, 11)  # through cycle warm + 20, where the load issues
    assert system.nodes[0].cache.stats["read_misses"] == 1
    run_ahead(system)
    assert system.nodes[0].cache.stats["read_misses"] == 1
    assert system.collect_stats()["workers"][0]["core"]["ops_load_miss"] == 1


def test_notes_are_parked_not_stamped_early():
    """The log is shared, so a note reached ahead must wait its turn:
    emission order is cycle order across tiles."""
    def noter(label, gap):
        def program(ctx):
            yield ctx.store(ctx.private_base, 1)
            for index in range(4):
                yield ("compute", gap)
                yield ctx.load(ctx.private_base)
                yield ctx.note(f"{label}{index}")
        return program

    config = SystemConfig(n_workers=2, cache_size_kb=2)
    programs = [noter("a", 7), noter("b", 5)]
    system = build(config, programs)
    run_ahead(system)
    cycles = [event.cycle for event in system.events.program]
    assert cycles == sorted(cycles)
    reference = build(config, programs)
    run_per_cycle(reference)
    assert system.events.program == reference.events.program


def _hits(ctx):
    yield ctx.store(ctx.private_base, 1)
    yield ctx.note("warm")
    for __ in range(30):
        yield ctx.load(ctx.private_base)


def _exchange(first_sender: bool):
    """Three 24-word messages each way between two tiles, L1 hits in
    between: under drops every receive waits on a starvation timer."""
    def program(ctx):
        peer = 1 - ctx.rank
        yield ctx.store(ctx.private_base, 1)
        for round_ in range(3):
            for __ in range(5):
                yield ctx.load(ctx.private_base)
            words = [(ctx.rank << 16) | (round_ << 8) | i for i in range(24)]
            if first_sender:
                yield ctx.send_words(peer, words)
                yield ctx.recv_words(peer, 24)
            else:
                yield ctx.recv_words(peer, 24)
                yield ctx.send_words(peer, words)
    return program


def test_tile_with_a_reliability_agent_keeps_the_per_cycle_schedule():
    """The agent's tick runs on every stepped cycle at which it can act
    (inside the tile's quiet horizon it provably cannot, and the step
    skips it), and what it does depends on which cycles those are: so the
    tile never runs ahead, and both schedules must tick it on the same
    cycles and leave the same timers behind each tick."""
    def ticks(run, config, programs):
        system = build(config, programs)
        ticked = []
        for node in system.nodes:
            agent = node.reliability
            tick = agent.tick

            def spy(cycle, agent=agent, tick=tick):
                tick(cycle)
                ticked.append((cycle, agent.node_id, [
                    (key, timer.front, timer.deadline, timer.attempt)
                    for key, timer in agent._timers.items()
                ]))

            agent.tick = spy
        run(system)
        return ticked, system.collect_stats()["faults"]

    solo_hits = (solo(faults=FaultPlan(seed=1)), [_hits])
    ticked, __ = ticks(run_ahead, *solo_hits)
    assert ticked == ticks(run_per_cycle, *solo_hits)[0]
    assert len(ticked) > 30  # one visit per hit at the least

    lossy_pair = (
        SystemConfig(
            n_workers=2, cache_size_kb=2,
            faults=FaultPlan(seed=4, drop_rate=0.08),
        ),
        [_exchange(True), _exchange(False)],
    )
    ticked, faults = ticks(run_ahead, *lossy_pair)
    assert (ticked, faults) == ticks(run_per_cycle, *lossy_pair)
    assert faults["nacks_issued"] > 0  # timers were armed, and fired
    assert any(timers for __, __, timers in ticked)


def test_stepping_outside_run_never_runs_ahead():
    system = build(solo(), [warm_then_local_ops])
    assert system.sim.horizon == 0
    stop_ahead(system, 10)
    assert system.sim.horizon == 0


# -- drawn programs: the two schedules agree on everything ------------------------

_WORD = st.integers(min_value=0, max_value=0xFFFF_FFFF)
#: Four lines of one private set (two ways: they evict each other) or
#: four lines of the shared segment, any word of the line.
_ADDR = st.tuples(
    st.sampled_from("pps"), st.integers(0, 3), st.integers(0, 3)
)
_LMEM = st.integers(0, 7).map(lambda index: index * 4)

_DOUBLE = st.floats(allow_nan=False)

_TILE_OP = st.one_of(
    st.tuples(st.just("load"), _ADDR),
    st.tuples(st.just("load"), _ADDR),
    st.tuples(st.just("store"), _ADDR, _WORD),
    st.tuples(st.just("store"), _ADDR, _WORD),
    # A double at word 1 or 3 is not 8-aligned (at 3 it spans two lines).
    st.tuples(st.just("load_double"), _ADDR),
    st.tuples(st.just("store_double"), _ADDR, _DOUBLE),
    st.tuples(st.just("compute"), st.integers(0, 40)),
    st.tuples(st.just("flush"), _ADDR),
    st.tuples(st.just("inval"), _ADDR),
    st.tuples(st.just("lmem_write"), _LMEM, _WORD),
    st.tuples(st.just("lmem_read"), _LMEM),
    st.tuples(st.just("uload"), _ADDR),
    st.tuples(st.just("ustore"), _ADDR, _WORD),
    st.tuples(st.just("fence")),
    st.tuples(st.just("note"), st.sampled_from("xyz")),
)


@st.composite
def scripts(draw):
    """``(config, per-tile op lists)``.

    One global list of steps — a burst of ops on one tile, or a message
    between two — projected per tile in order, so sends and receives
    follow one total order and cannot deadlock (messages fit the credit
    window, so a send never waits for its receive).
    """
    n = draw(st.integers(2, 4))
    tiles = st.integers(0, n - 1)
    burst = st.tuples(
        st.just("ops"), tiles, st.lists(_TILE_OP, min_size=1, max_size=12)
    )
    message = st.tuples(
        st.just("msg"), tiles, tiles, st.lists(_WORD, min_size=1, max_size=6)
    ).filter(lambda step: step[1] != step[2])
    steps = draw(st.lists(
        st.one_of(burst, burst, message), min_size=1, max_size=16
    ))
    per_tile = [[] for __ in range(n)]
    for step in steps:
        if step[0] == "ops":
            per_tile[step[1]].extend(step[2])
        else:
            __, src, dst, words = step
            per_tile[src].append(("send", dst, words))
            per_tile[dst].append(("recv", src, len(words)))
    config = SystemConfig(
        n_workers=n,
        cache_size_kb=2,
        cache_policy=draw(st.sampled_from(["wb", "wt"])),
        write_buffer_depth=draw(st.sampled_from([1, 4])),
    )
    return config, per_tile


def program_of(ops):
    def resolve(ctx, where):
        segment, line, word = where
        if segment == "p":
            return ctx.private_base + line * SET_STRIDE + word * 4
        return ctx.shared_base + line * LINE_BYTES + word * 4

    def program(ctx):
        for op in ops:
            code = op[0]
            if code == "send":
                yield ctx.send_words(op[1], op[2])
            elif code == "recv":
                yield ctx.recv_words(op[1], op[2])
            elif code in ("load", "store", "load_double", "store_double",
                          "flush", "inval", "uload", "ustore"):
                yield (code, resolve(ctx, op[1]), *op[2:])
            else:
                yield op
    return program


_DRAWN = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drawn(config: SystemConfig, per_tile) -> object:
    """The drawn programs as a ``tests.reference_machine.outcome`` run."""
    def run(max_cycles, observer) -> bool:
        system = build(config, [program_of(ops) for ops in per_tile])
        observer(system)
        system.run(max_cycles=max_cycles or BUDGET)
        return True
    return run


@_DRAWN
@given(script=scripts())
def test_schedules_agree_on_a_whole_run(script):
    assert_agree(drawn(*script), ["run_ahead"])


@_DRAWN
@given(script=scripts(), interval=st.integers(1, 97))
def test_schedules_agree_on_every_sampled_row(script, interval):
    config, per_tile = script
    telemetry = TelemetryConfig(sample_interval=interval)
    assert_agree(drawn(config.with_changes(telemetry=telemetry), per_tile),
                 ["run_ahead"])


@_DRAWN
@given(script=scripts(), data=st.data())
def test_schedules_agree_when_stopped_mid_run(script, data):
    """... and a run stopped ahead of the clock resumes to the whole run."""
    config, per_tile = script
    programs = [program_of(ops) for ops in per_tile]
    whole = build(config, programs)
    run_ahead(whole)
    assume(whole.sim.cycle > 1)  # a run of one cycle has no middle
    stop = data.draw(st.integers(1, whole.sim.cycle - 1))
    assert_agree(drawn(config, per_tile), ["run_ahead"], stop)
    ahead = build(config, programs)
    stop_ahead(ahead, stop)
    run_ahead(ahead)
    assert machine_state(ahead) == machine_state(whole)
