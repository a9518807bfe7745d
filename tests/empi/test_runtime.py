"""eMPI runtime: point-to-point, barriers, collectives."""

from __future__ import annotations

import pytest

from repro.empi.runtime import BarrierAlgorithm
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def config_for(n_workers: int, barrier: str = "central") -> SystemConfig:
    return SystemConfig(n_workers=n_workers, cache_size_kb=2,
                        empi_barrier=barrier)


def test_send_recv_doubles_round_trip():
    payload = [1.5, -2.25, 3.125]
    received = {}

    def sender(ctx):
        yield from ctx.empi.send_doubles(1, payload)

    def receiver(ctx):
        values = yield from ctx.empi.recv_doubles(0, 3)
        received["values"] = values

    run_programs(config_for(2), sender, receiver)
    assert received["values"] == payload


@pytest.mark.parametrize("algorithm", ["central", "dissemination"])
@pytest.mark.parametrize("n_workers", [2, 3, 5, 8])
def test_barrier_is_a_real_barrier(algorithm, n_workers):
    """No rank may leave barrier k before every rank entered it."""
    events = []

    def make_program(stagger: int):
        def program(ctx):
            for round_index in range(3):
                yield ("compute", 1 + stagger * 37)
                events.append(("enter", round_index, ctx.rank))
                yield from ctx.empi.barrier()
                events.append(("leave", round_index, ctx.rank))
        return program

    run_programs(
        config_for(n_workers, barrier=algorithm),
        *[make_program(rank) for rank in range(n_workers)],
    )
    # For each round: every "enter" must precede every "leave".
    for round_index in range(3):
        enters = [i for i, e in enumerate(events)
                  if e[0] == "enter" and e[1] == round_index]
        leaves = [i for i, e in enumerate(events)
                  if e[0] == "leave" and e[1] == round_index]
        assert len(enters) == len(leaves) == n_workers
        assert max(enters) < min(leaves)


def test_barrier_single_worker_is_trivial():
    def program(ctx):
        yield from ctx.empi.barrier()
        yield ctx.note("done")

    system = run_programs(config_for(1), program)
    assert "done" in system.events.marks(system.rank_to_node[0])


def test_back_to_back_barriers_do_not_cross_epochs():
    """A fast rank re-entering the barrier cannot steal older tokens."""
    def program(ctx):
        for __ in range(6):
            yield from ctx.empi.barrier()
        yield ctx.note(f"done:{ctx.rank}")

    system = run_programs(config_for(3), program, program, program)
    done = [
        label for node in system.rank_to_node.values()
        for label in system.events.marks(node) if label.startswith("done")
    ]
    assert len(done) == 3


def test_dissemination_uses_log_rounds():
    def program(ctx):
        yield from ctx.empi.barrier()

    system = run_programs(config_for(8, barrier="dissemination"),
                          *[program] * 8)
    # Dissemination with 8 workers: 3 rounds of one token per rank.
    for node in system.nodes:
        assert node.tie.stats["requests_sent"] == 3


def test_central_token_counts():
    def program(ctx):
        yield from ctx.empi.barrier()

    system = run_programs(config_for(4), *[program] * 4)
    root = system.nodes[0]
    # Root sends n-1 releases; others send one arrival each.
    assert root.tie.stats["requests_sent"] == 3
    for node in system.nodes[1:]:
        assert node.tie.stats["requests_sent"] == 1


def test_barrier_algorithm_enum_parse():
    assert BarrierAlgorithm("central") is BarrierAlgorithm.CENTRAL
    with pytest.raises(ValueError):
        BarrierAlgorithm("tree")


def test_message_and_barrier_interleaving():
    """Data streams and barrier tokens share the NoC without interference."""
    received = {}

    def pusher(ctx):
        for round_index in range(4):
            yield from ctx.empi.send_doubles(1, [float(round_index)])
            yield from ctx.empi.barrier()

    def puller(ctx):
        values = []
        for __ in range(4):
            got = yield from ctx.empi.recv_doubles(0, 1)
            values.extend(got)
            yield from ctx.empi.barrier()
        received["values"] = values

    run_programs(config_for(2), pusher, puller)
    assert received["values"] == [0.0, 1.0, 2.0, 3.0]
