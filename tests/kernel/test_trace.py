"""EventLog behaviour: one sink, two retention classes."""

from __future__ import annotations

from collections import deque

from repro.kernel import trace
from repro.kernel.trace import EJECT, FAULT, MARK, RING_KINDS, EventLog
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


def small_ring(limit: int) -> EventLog:
    """A log whose ring is forced down to ``limit`` entries."""
    log = EventLog()
    log.ring = deque(maxlen=limit)
    return log


def test_enabled_tracer_records_events():
    log = EventLog()
    log.emit(5, 3, EJECT, 17, ("MESSAGE", 4))
    log.emit(6, 3, MARK, "start")
    (eject,) = log.ring
    assert eject.cycle == 5
    assert eject.tile == 3
    assert eject.key == 17
    assert eject.payload == ("MESSAGE", 4)
    assert log.program == [(6, 3, MARK, "start", None)]
    assert [event.kind for event in log] == [MARK, EJECT]


def test_limit_drops_excess_events():
    log = small_ring(2)
    for cycle in range(5):
        log.emit(cycle, 0, EJECT)
    assert len(log.ring) == 2
    assert log.dropped == 3


def test_ring_buffer_keeps_the_last_events_in_order():
    # The ring is over the *tail* of the stream: after wrapping it holds
    # the last N records in chronological order — what a timeout report
    # wants to show (the hang, not startup noise).
    log = small_ring(3)
    for cycle in range(7):
        log.emit(cycle, 0, FAULT, "dropped", (cycle,))
    assert log.dropped == 4
    assert [event.cycle for event in log.ring] == [4, 5, 6]


def test_ring_buffer_wraps_repeatedly():
    log = small_ring(2)
    for cycle in range(10):
        log.emit(cycle, 0, EJECT)
        assert [event.cycle for event in log.ring] == (
            list(range(cycle + 1)) if cycle < 2 else [cycle - 1, cycle]
        )
    assert log.dropped == 8


def test_program_events_are_never_evicted():
    log = small_ring(2)
    for cycle in range(50):
        log.emit(cycle, 1, MARK, f"iter:{cycle}")
        log.emit(cycle, 1, EJECT)
    assert len(log.program) == 50
    assert log.dropped == 48
    assert log.marks(1) == {f"iter:{cycle}": cycle for cycle in range(50)}


def test_app_marks_survive_a_full_ring():
    """The retention invariant on a real machine: with the ring forced
    to 8 entries and far more than 8 ejects, every mark the programs
    made is still there."""
    def program(ctx):
        peer = 1 - ctx.rank
        for round_ in range(6):
            yield ctx.note(f"round:{round_}")
            if ctx.rank == 0:
                yield from ctx.empi.send_doubles(peer, [1.0, 2.0, 3.0])
                yield from ctx.empi.recv_doubles(peer, 3)
            else:
                yield from ctx.empi.recv_doubles(peer, 3)
                yield from ctx.empi.send_doubles(peer, [4.0, 5.0, 6.0])

    system = MedeaSystem(SystemConfig(n_workers=2, cache_size_kb=2, trace=True))
    system.events.ring = deque(maxlen=8)
    system.load_programs([program, program])
    system.run(max_cycles=100_000)
    assert len(system.events.ring) == 8
    assert system.events.dropped > 8
    for rank in (0, 1):
        marks = system.events.marks(system.rank_to_node[rank])
        assert list(marks) == [f"round:{round_}" for round_ in range(6)]


def test_of_kind_filter():
    log = EventLog()
    log.emit(1, 0, MARK, "x")
    log.emit(2, 0, EJECT)
    log.emit(3, 1, MARK, "y")
    log.emit(4, 1, FAULT, "dropped", ())
    assert [event.cycle for event in log.of_kind(MARK)] == [1, 3]
    assert [event.cycle for event in log.of_kind(EJECT, FAULT)] == [2, 4]


def test_marks_are_per_tile_and_keep_the_last_cycle():
    log = EventLog()
    log.emit(1, 1, MARK, "start")
    log.emit(2, 2, MARK, "start")
    log.emit(9, 1, MARK, "start")
    log.emit(9, 1, trace.PHASE_ENTER, "start")
    assert log.marks(1) == {"start": 9}
    assert log.marks(2) == {"start": 2}
    assert log.marks(3) == {}


def test_kinds_enumeration():
    """The kind constants are a closed set of distinct values (two
    kinds sharing a value would silently merge two streams), and the
    ring class is drawn from it."""
    kinds = {
        name: value for name, value in vars(trace).items()
        if name.isupper() and isinstance(value, str)
    }
    assert len(set(kinds.values())) == len(kinds) == 15
    assert RING_KINDS < set(kinds.values())
    assert {MARK, trace.REQUEST_POST, trace.CP_HOP}.isdisjoint(RING_KINDS)


def test_event_repr_mentions_fields():
    log = EventLog()
    log.emit(7, 2, FAULT, "crc_dropped", (42,))
    assert "cycle=7" in repr(log.ring[0])
    assert "payload=(42,)" in repr(log.ring[0])
