"""The non-blocking request layer: engine units and machine-level matrix.

Three layers of guarantees:

* engine mechanics — turn queues, posting order, overlap accounting —
  tested on synthetic fragments with no machine underneath;
* point-to-point isend/irecv on the machine, over both programming
  models, including ordered matching of concurrent receives from one
  peer and the mixing guard against blocking data-path ops;
* non-blocking collectives delivering bit-identical vectors to their
  blocking counterparts and the pure-python combine-order references.
"""

from __future__ import annotations

import pytest

from repro.empi.collectives import make_comm, reference_allreduce
from repro.empi.requests import (
    RESCHEDULE,
    ProgressEngine,
    TurnQueue,
    mean_overlap_efficiency,
    overlap_stats,
)
from repro.errors import ProgramError
from repro.kernel.trace import (
    MARK,
    OVERLAP_ENTER,
    OVERLAP_EXIT,
    REQUEST_DONE,
    REQUEST_POST,
    EventLog,
)
from repro.mem.values import float_to_words
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.empi.cycle_pins import COLLECTIVES, check_pins, measure_hops
from tests.goldens import check


def drive(program, results=None):
    """Run a generator program inline, feeding scripted op results."""
    results = list(results or [])
    ops = []
    value = None
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            return ops, stop.value
        ops.append(op)
        value = results.pop(0) if results else None


# ---------------------------------------------------------------------------
# Engine units (no machine)
# ---------------------------------------------------------------------------


def test_turn_queue_is_fifo():
    queue = TurnQueue()
    a, b = object(), object()
    queue.enter(a)
    queue.enter(b)
    assert queue.holds(a) and not queue.holds(b)
    queue.leave(a)
    assert queue.holds(b)
    with pytest.raises(ProgramError):
        queue.leave(a)


def test_post_gives_an_eager_first_slice():
    engine = ProgressEngine()

    def frag():
        yield ("compute", 1)
        return "done"

    ops, request = drive(engine.post(frag(), "f"))
    # The fragment ran to completion inside post: note, op, note.
    assert request.complete and request.result == "done"
    # The events carry the request label as key, so trace exporters
    # can pair post/done spans; the overlap accounting folds the kind.
    assert ops == [
        ("note", REQUEST_POST, "f", None), ("compute", 1),
        ("note", REQUEST_DONE, "f", None),
    ]
    assert engine.idle


def test_reschedule_parks_fragment_until_next_round():
    engine = ProgressEngine()
    steps = []

    def frag(name):
        steps.append(f"{name}:a")
        yield RESCHEDULE
        steps.append(f"{name}:b")
        return name

    __, first = drive(engine.post(frag("first"), "first"))
    __, second = drive(engine.post(frag("second"), "second"))
    assert not first.complete and not second.complete
    assert steps == ["first:a", "second:a"]
    drive(engine.progress())
    # One round finishes both, in posting order.
    assert steps == ["first:a", "second:a", "first:b", "second:b"]
    assert first.result == "first" and second.result == "second"


def test_wait_spins_progress_until_complete():
    engine = ProgressEngine()
    gate = {"open": False}

    def frag():
        while not gate["open"]:
            yield ("poll",)
            yield RESCHEDULE
        return 42

    __, request = drive(engine.post(frag(), "gated"))

    program = engine.wait(request)
    polls = 0
    value = None
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            assert stop.value == 42
            break
        if op == ("poll",):
            polls += 1
            if polls == 3:
                gate["open"] = True
        value = None
    assert polls == 3


def test_overlap_interleaves_progress_rounds():
    engine = ProgressEngine()
    order = []

    def frag():
        order.append("comm")
        yield RESCHEDULE
        order.append("comm")
        return None

    def compute():
        for __ in range(4):
            order.append("compute")
            yield ("compute", 5)

    drive(engine.post(frag(), "f"))
    ops, __ = drive(engine.overlap(compute(), poll_interval=2))
    assert order == ["comm", "compute", "compute", "comm", "compute",
                     "compute"]
    assert ops[0] == ("note", OVERLAP_ENTER, None, None)
    assert ops[-1] == ("note", OVERLAP_EXIT, None, None)


def test_overlap_counts_a_double_as_its_two_words():
    """The poll count is in instructions, and a double is two: a round
    falls between the words of the double that crosses the interval."""
    engine = ProgressEngine()
    low, high = float_to_words(2.5)

    def frag():
        while True:
            yield ("poll",)
            yield RESCHEDULE

    def compute():
        value = yield ("load_double", 0x100)
        yield ("store_double", 0x108, value)
        return value

    drive(engine.post(frag(), "f"))
    ops, value = drive(engine.overlap(compute(), poll_interval=3),
                       [None, low, high])
    assert ops[1:-1] == [
        ("load", 0x100), ("load", 0x104), ("store", 0x108, low), ("poll",),
        ("store", 0x10C, high),
    ]
    assert value == 2.5


def test_overlap_stats_accounting():
    log = EventLog()
    log.emit(10, 1, REQUEST_POST, "halo")
    log.emit(20, 1, OVERLAP_ENTER)
    log.emit(50, 1, OVERLAP_EXIT)
    log.emit(60, 1, REQUEST_DONE, "halo")
    log.emit(15, 2, MARK, "solve_start")  # other kinds are ignored
    per_rank = overlap_stats(log, {0: 1, 1: 2})
    assert per_rank[0].inflight_cycles == 50
    assert per_rank[0].overlap_region_cycles == 30
    assert per_rank[0].coexist_cycles == 30
    assert per_rank[0].efficiency == pytest.approx(0.6)
    assert per_rank[1].inflight_cycles == 0
    assert per_rank[1].efficiency == 0.0
    assert mean_overlap_efficiency(per_rank) == pytest.approx(0.6)


def test_waitany_returns_first_complete_in_list_order():
    engine = ProgressEngine()
    gates = {"a": False, "b": False}

    def frag(name):
        while not gates[name]:
            yield ("poll", name)
            yield RESCHEDULE
        return name.upper()

    __, req_a = drive(engine.post(frag("a"), "a"))
    __, req_b = drive(engine.post(frag("b"), "b"))

    program = engine.waitany([req_a, req_b])
    value = None
    polls = 0
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            index, result = stop.value
            break
        if op[0] == "poll":
            polls += 1
            if polls == 3:
                gates["b"] = True  # b completes first
        value = None
    assert (index, result) == (1, "B")
    assert not req_a.complete  # waitany does not wait for the rest


def test_waitany_on_already_complete_request_needs_no_progress():
    engine = ProgressEngine()

    def frag():
        return "done"
        yield  # pragma: no cover - makes this a generator

    __, request = drive(engine.post(frag(), "f"))
    assert request.complete
    ops, (index, result) = drive(engine.waitany([request]))
    assert (index, result) == (0, "done")
    assert ops == []  # completed without a progress round (like wait)


def test_waitany_rejects_empty_list():
    engine = ProgressEngine()
    with pytest.raises(ProgramError):
        drive(engine.waitany([]))


def test_waitsome_returns_all_currently_complete():
    engine = ProgressEngine()
    gates = {"a": False, "b": False, "c": False}

    def frag(name):
        while not gates[name]:
            yield ("poll", name)
            yield RESCHEDULE
        return name.upper()

    requests = [drive(engine.post(frag(n), n))[1] for n in ("a", "b", "c")]

    program = engine.waitsome(requests)
    value = None
    polls = 0
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            completed = stop.value
            break
        if op[0] == "poll":
            polls += 1
            if polls == 3:
                # Both gates open before the next round starts, so two
                # requests complete in one round; both must be reported.
                gates["a"] = True
                gates["c"] = True
        value = None
    assert completed == [(0, "A"), (2, "C")]
    assert not requests[1].complete


def test_waitsome_empty_list_returns_immediately():
    engine = ProgressEngine()
    ops, completed = drive(engine.waitsome([]))
    assert completed == [] and ops == []


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_waitany_waitsome_on_the_machine(model):
    """waitany picks whichever receive lands first; waitsome then
    drains the rest — mirroring waitall's semantics per request."""
    observed = {}

    def listener(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        slow = yield from comm.irecv(1, 1)
        fast = yield from comm.irecv(2, 1)
        index, result = yield from comm.waitany([slow, fast])
        observed["first"] = (index, result)
        # The fast receive is already complete, so waitsome reports it
        # immediately without blocking on the slow one...
        observed["some"] = yield from comm.waitsome([slow, fast])
        # ...and waitsome over the still-pending one progresses until it
        # lands.
        observed["rest"] = yield from comm.waitsome([slow])
        yield from comm.barrier()

    def fast_peer(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        request = yield from comm.isend(0, [2.5])
        yield from comm.wait(request)
        yield from comm.barrier()

    def slow_peer(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        yield ("compute", 800)
        request = yield from comm.isend(0, [1.5])
        yield from comm.wait(request)
        yield from comm.barrier()

    run_system([listener, slow_peer, fast_peer], 3)
    assert observed["first"] == (1, [2.5])  # the fast peer won
    assert observed["some"] == [(1, [2.5])]
    assert observed["rest"] == [(0, [1.5])]


# ---------------------------------------------------------------------------
# Machine-level point-to-point
# ---------------------------------------------------------------------------


def run_system(factories, n_workers, **config_overrides):
    config = SystemConfig(n_workers=n_workers, **config_overrides)
    system = MedeaSystem(config)
    system.load_programs(factories)
    cycles = system.run(max_cycles=5_000_000)
    return system, cycles


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_isend_irecv_ring(model):
    n_workers = 4
    results = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, model, max_values=2, p2p_values=2)
            yield from comm.barrier()
            send = yield from comm.isend(
                (rank + 1) % n_workers, [float(rank), rank + 0.5]
            )
            recv = yield from comm.irecv((rank - 1) % n_workers, 2)
            got = yield from comm.wait(recv)
            yield from comm.wait(send)
            results[rank] = got
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers)
    for rank in range(n_workers):
        peer = (rank - 1) % n_workers
        assert results[rank] == [float(peer), peer + 0.5]


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_concurrent_irecvs_match_in_posting_order(model):
    """Two outstanding receives from one peer must not steal each
    other's payload: first posted gets the first message."""
    results = {}

    def sender(ctx):
        comm = make_comm(ctx, model, max_values=2, p2p_values=2)
        yield from comm.barrier()
        first = yield from comm.isend(1, [1.0, 2.0])
        second = yield from comm.isend(1, [3.0, 4.0])
        yield from comm.waitall([first, second])
        yield from comm.barrier()

    def receiver(ctx):
        comm = make_comm(ctx, model, max_values=2, p2p_values=2)
        yield from comm.barrier()
        req_a = yield from comm.irecv(0, 2)
        req_b = yield from comm.irecv(0, 2)
        # Wait in reverse order: completion order must still follow
        # posting order.
        got_b = yield from comm.wait(req_b)
        got_a = yield from comm.wait(req_a)
        results["a"] = got_a
        results["b"] = got_b
        yield from comm.barrier()

    run_system([sender, receiver], 2)
    assert results["a"] == [1.0, 2.0]
    assert results["b"] == [3.0, 4.0]


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_blocking_ops_refused_with_outstanding_requests(model):
    """Both backends must refuse blocking data-path (and, for SM, even
    barrier) calls while requests are in flight, not corrupt streams."""
    failures = {}

    def left(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        request = yield from comm.irecv(1, 1)
        try:
            yield from comm.send(1, [9.0])
        except ProgramError:
            failures["send_raised"] = True
        if model == "pure_sm":
            try:
                yield from comm.barrier()
            except ProgramError:
                failures["barrier_raised"] = True
        __ = yield from comm.wait(request)
        yield from comm.barrier()

    def right(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        send = yield from comm.isend(0, [7.0])
        yield from comm.wait(send)
        yield from comm.barrier()

    run_system([left, right], 2)
    assert failures.get("send_raised")
    if model == "pure_sm":
        assert failures.get("barrier_raised")


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_test_polls_without_blocking(model):
    observed = {}

    def early(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        request = yield from comm.irecv(1, 1)
        # The peer sends only after a long delay: the first test()
        # cannot find data.
        first_test = yield from comm.test(request)
        observed["first"] = first_test
        while not (yield from comm.test(request)):
            yield ("compute", 16)
        observed["value"] = request.result
        yield from comm.barrier()

    def late(ctx):
        comm = make_comm(ctx, model, max_values=1, p2p_values=1)
        yield from comm.barrier()
        yield ("compute", 600)
        send = yield from comm.isend(0, [5.5])
        yield from comm.wait(send)
        yield from comm.barrier()

    run_system([early, late], 2)
    assert observed["first"] is False
    assert observed["value"] == [5.5]


# ---------------------------------------------------------------------------
# Non-blocking collectives: bit-identity across modes and backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
@pytest.mark.parametrize("algorithm", ["linear", "tree"])
def test_iallreduce_matches_blocking_and_reference(model, algorithm):
    n_workers = 4
    n_values = 3
    nonblocking = {}
    blocking = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(
                ctx, model, algorithm, max_values=n_values, p2p_values=1
            )
            mine = [rank + 0.125 * i for i in range(n_values)]
            yield from comm.barrier()
            request = yield from comm.iallreduce(mine)
            result = yield from comm.wait(request)
            nonblocking[rank] = result
            yield from comm.barrier()
            result = yield from comm.allreduce(mine)
            blocking[rank] = result
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers)
    contributions = [
        [rank + 0.125 * i for i in range(n_values)]
        for rank in range(n_workers)
    ]
    expected = reference_allreduce(contributions, "sum", algorithm)
    for rank in range(n_workers):
        assert nonblocking[rank] == expected
        assert blocking[rank] == expected


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_ibcast_and_ireduce_roots(model):
    n_workers = 3
    root = 1
    bcast_out = {}
    reduce_out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, model, "linear", max_values=2, p2p_values=1)
            yield from comm.barrier()
            payload = [3.5, -1.25] if rank == root else None
            request = yield from comm.ibcast(root, payload, 2)
            bcast_out[rank] = yield from comm.wait(request)
            request = yield from comm.ireduce(root, [float(rank), 1.0])
            reduce_out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers)
    for rank in range(n_workers):
        assert bcast_out[rank] == [3.5, -1.25]
    assert reduce_out[root] == [0.0 + 1.0 + 2.0, 3.0]
    for rank in range(n_workers):
        if rank != root:
            assert reduce_out[rank] is None


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_queued_nonblocking_collectives_complete_in_order(model):
    """Two iallreduces posted back to back: the collective turn keeps
    their messages apart and both deliver reference bits."""
    n_workers = 3
    outputs = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, model, "tree", max_values=1, p2p_values=1)
            yield from comm.barrier()
            first = yield from comm.iallreduce([float(rank)])
            second = yield from comm.iallreduce([rank * 10.0])
            outputs[rank] = (
                (yield from comm.wait(first)),
                (yield from comm.wait(second)),
            )
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers)
    expected_first = reference_allreduce(
        [[float(r)] for r in range(n_workers)], "sum", "tree"
    )
    expected_second = reference_allreduce(
        [[r * 10.0] for r in range(n_workers)], "sum", "tree"
    )
    for rank in range(n_workers):
        assert outputs[rank] == (expected_first, expected_second)


@pytest.mark.parametrize("collective", COLLECTIVES)
@pytest.mark.parametrize("combo", [
    "empi-linear", "empi-tree", "sm-linear", "sm-tree", "sm-tree-chiplet",
])
def test_blocking_and_nonblocking_cycles_are_pinned(collective, combo):
    """Exact total cycles, blocking and i<op>+wait, P x root x length
    (the pure-SM tree bcast plans the linear one: an alias)."""
    check_pins(collective, combo)


@pytest.mark.parametrize("collective", COLLECTIVES)
def test_hops_are_pinned(collective):
    """Every rank's zero-cycle hop notes, at the cycle each is emitted,
    for every eMPI combination, blocking and i<op>+wait."""
    check("collective_cycles", measure_hops(collective))
