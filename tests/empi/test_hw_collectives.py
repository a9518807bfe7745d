"""The ``hw`` collective algorithm: offloaded bcast/allreduce.

Guarantees under test:

* bit-identity — hw collectives deliver exactly the software tree's
  bits (same combine order), on every rank, blocking and non-blocking,
  in multicast mode and in the unicast-fallback mode;
* the acceptance criterion — on the reference 8-worker mesh, hardware
  bcast and allreduce complete in strictly fewer cycles than the
  binomial-tree software collectives at equal payload;
* opt-in-ness — the hw algorithm refuses to run without the engine,
  and the SM backend refuses it outright;
* determinism — double runs of the hw workload are bit-identical,
  stats and all.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.empi.collectives import (
    CollectiveAlgorithm,
    make_comm,
    reference_allreduce,
)
from repro.empi.smsync import SharedMemoryCollectives
from repro.errors import ConfigError, ProgramError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.empi.cycle_pins import COLLECTIVES, SCATTER_GATHER, check_pins


def run_system(factories, n_workers, **overrides):
    config = SystemConfig(n_workers=n_workers, **overrides)
    system = MedeaSystem(config)
    system.load_programs(factories)
    cycles = system.run(max_cycles=5_000_000)
    return system, cycles


def hw_config(n_workers=8, **overrides):
    return dict(dma_tx_queue_depth=4, **overrides)


def test_combine_order_of_hw_is_tree():
    assert CollectiveAlgorithm.HW.combine_order() is CollectiveAlgorithm.TREE
    assert CollectiveAlgorithm.parse("hw") is CollectiveAlgorithm.HW


@pytest.mark.parametrize("noc_multicast", [True, False])
@pytest.mark.parametrize("root", [0, 2])
def test_hw_bcast_delivers_root_payload(root, noc_multicast):
    n_workers = 4
    payload = [1.5, -2.25, 3.0]
    out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "hw", max_values=3)
            yield from comm.barrier()
            values = payload if rank == root else None
            out[rank] = yield from comm.bcast(root, values, len(payload))
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers,
               **hw_config(noc_multicast=noc_multicast))
    for rank in range(n_workers):
        assert out[rank] == payload


@pytest.mark.parametrize("noc_multicast", [True, False])
def test_hw_allreduce_is_bit_identical_to_tree(noc_multicast):
    n_workers = 8
    n_values = 5
    hw_out = {}
    tree_out = {}

    def factory(rank):
        def program(ctx):
            hw = make_comm(ctx, "empi", "hw", max_values=n_values)
            tree = make_comm(ctx, "empi", "tree", max_values=n_values)
            mine = [rank + 0.375 * i for i in range(n_values)]
            yield from hw.barrier()
            hw_out[rank] = yield from hw.allreduce(mine)
            yield from hw.barrier()
            tree_out[rank] = yield from tree.allreduce(mine)
            yield from hw.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers,
               **hw_config(noc_multicast=noc_multicast))
    contributions = [
        [rank + 0.375 * i for i in range(n_values)]
        for rank in range(n_workers)
    ]
    expected = reference_allreduce(contributions, "sum", "tree")
    assert reference_allreduce(contributions, "sum", "hw") == expected
    for rank in range(n_workers):
        assert hw_out[rank] == expected
        assert tree_out[rank] == expected


def test_hw_ibcast_matches_blocking():
    n_workers = 4
    n_values = 4
    out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "hw", max_values=n_values)
            payload = [7.5 - i for i in range(n_values)] if rank == 0 else None
            yield from comm.barrier()
            request = yield from comm.ibcast(0, payload, n_values)

            def compute_frag():
                for __ in range(4):
                    yield ("compute", 10)

            # Compute while the multicast streams underneath.
            yield from comm.overlap(compute_frag())
            out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers,
               **hw_config())
    expected = [7.5 - i for i in range(n_values)]
    for rank in range(n_workers):
        assert out[rank] == expected


def test_hw_iallreduce_matches_reference():
    n_workers = 4
    out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "hw", max_values=2)
            yield from comm.barrier()
            request = yield from comm.iallreduce([float(rank), 1.0])
            out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers,
               **hw_config())
    expected = reference_allreduce(
        [[float(r), 1.0] for r in range(n_workers)], "sum", "tree"
    )
    for rank in range(n_workers):
        assert out[rank] == expected


def test_hw_refused_without_engine():
    def program(ctx):
        comm = make_comm(ctx, "empi", "hw", max_values=1)
        yield from comm.bcast(0, [1.0], 1)

    with pytest.raises(ProgramError, match="dma_tx_queue_depth"):
        run_system([program, lambda ctx: iter(())], 2)


def test_hw_refused_on_shared_memory_model():
    config = SystemConfig(n_workers=2, dma_tx_queue_depth=4)
    system = MedeaSystem(config)
    ctx = system.context_for(0)
    # One typed rejection, raised by the backend itself: the factory
    # and direct construction agree, for both empi-only algorithms.
    for algorithm in ("hw", "hier"):
        with pytest.raises(ConfigError, match="only available on the 'empi'"):
            make_comm(ctx, "pure_sm", algorithm)
        with pytest.raises(ConfigError, match="only available on the 'empi'"):
            SharedMemoryCollectives(ctx, algorithm=algorithm)


def test_guard_names_rank_op_and_outstanding_requests():
    seen = {}

    def left(ctx):
        comm = make_comm(ctx, "empi", max_values=1)
        yield from comm.barrier()
        request = yield from comm.irecv(1, 1)
        try:
            yield from comm.send(1, [9.0])
        except ProgramError as err:
            seen["message"] = str(err)
        __ = yield from comm.wait(request)
        yield from comm.barrier()

    def right(ctx):
        comm = make_comm(ctx, "empi", max_values=1)
        yield from comm.barrier()
        send = yield from comm.isend(0, [7.0])
        yield from comm.wait(send)
        yield from comm.barrier()

    run_system([left, right], 2)
    message = seen["message"]
    assert "rank 0" in message          # the offending rank
    assert "blocking send" in message   # the offending op
    assert "irecv<-1" in message        # the outstanding request's label


def test_hw_allreduce_then_bcast_from_nonzero_root_regroups():
    """Mixed hw collectives change each tile's multicast group: rank 1
    first multicasts its reduce accumulator to its parent (group = one
    node), then roots a broadcast (group = everyone else) — exercising
    group re-registration inside real collectives."""
    n_workers = 4
    n_values = 5
    payload = [9.0, 8.0, 7.0, 6.0, 5.0]
    out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "hw", max_values=n_values)
            yield from comm.barrier()
            first = yield from comm.allreduce([float(rank)] * n_values)
            yield from comm.barrier()
            values = payload if rank == 1 else None
            second = yield from comm.bcast(1, values, n_values)
            out[rank] = (first, second)
            yield from comm.barrier()
        return program

    system, __ = run_system([factory(r) for r in range(n_workers)],
                            n_workers, **hw_config(n_workers=4))
    expected = reference_allreduce(
        [[float(r)] * n_values for r in range(n_workers)], "sum", "tree"
    )
    for rank in range(n_workers):
        assert out[rank] == (expected, payload)
    # Rank 1's engine really did rewrite its group register.
    assert system.nodes[1].dma.stats.as_dict()["group_reregisters"] == 1


def _blocking_call(comm, collective, n_workers):
    payload = [2.0, 2.0]
    if collective == "bcast":
        return comm.bcast(0, payload, 2)
    if collective == "reduce":
        return comm.reduce(0, payload)
    if collective == "allreduce":
        return comm.allreduce(payload)
    if collective == "scatter":
        return comm.scatter(0, [payload] * n_workers, 2)
    return comm.gather(0, payload)


def _guard_message(model, algorithm, collective):
    """The message of a blocking ``collective`` that rank 0 issues while
    its ``iallreduce`` is outstanding (rank 1 just waits)."""
    seen = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, model, algorithm, max_values=2)
            yield from comm.barrier()
            request = yield from comm.iallreduce([1.0, float(ctx.rank)])
            if rank == 0:
                try:
                    yield from _blocking_call(comm, collective, 2)
                except ProgramError as err:
                    seen["message"] = str(err)
            __ = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    overrides = hw_config() if model == "empi" else {}
    run_system([factory(r) for r in range(2)], 2, **overrides)
    return seen["message"]


@pytest.mark.parametrize("algorithm", ["tree", "hw", "ring"])
def test_guard_names_the_algorithm_in_use(algorithm):
    """Mixed-algorithm apps get actionable messages: for every blocking
    collective the outstanding-request guard names the algorithm in use
    (scatter and gather are always linear) AND the posted request's label
    carries its own algorithm."""
    for collective in COLLECTIVES + SCATTER_GATHER:
        message = _guard_message("empi", algorithm, collective)
        in_use = "linear" if collective in SCATTER_GATHER else algorithm
        assert f"blocking {collective}[{in_use}]" in message
        assert f"iallreduce[{algorithm}]" in message  # the request's label


@pytest.mark.parametrize("algorithm", ["tree", "ring"])
def test_sm_guard_names_the_algorithm_in_use(algorithm):
    # Backend parity: the shared-memory guard carries the same shape
    # and names the op the caller issued, not an inner leg.
    for collective in COLLECTIVES + SCATTER_GATHER:
        message = _guard_message("pure_sm", algorithm, collective)
        in_use = "linear" if collective in SCATTER_GATHER else algorithm
        assert f"blocking {collective}[{in_use}]" in message
        assert f"iallreduce[{algorithm}]" in message


@pytest.mark.parametrize("collective", COLLECTIVES + SCATTER_GATHER)
@pytest.mark.parametrize("model", ["empi", "pure_sm"])
def test_guard_holds_on_a_single_rank(model, collective):
    """One rule at any P: a lone rank with a request outstanding (an
    ``irecv`` from itself, never matched) is refused a blocking
    collective just the same."""
    seen = {}

    def program(ctx):
        comm = make_comm(ctx, model, "tree", max_values=2, p2p_values=2)
        __ = yield from comm.irecv(0, 2)
        with pytest.raises(ProgramError) as caught:
            yield from _blocking_call(comm, collective, 1)
        seen["message"] = str(caught.value)

    run_system([program], 1)
    in_use = "linear" if collective in SCATTER_GATHER else "tree"
    assert f"blocking {collective}[{in_use}]" in seen["message"]
    assert "irecv<-0" in seen["message"]


def test_hw_engine_error_names_the_operation():
    def program(ctx):
        comm = make_comm(ctx, "empi", "hw", max_values=1)
        yield from comm.reduce(0, [1.0])

    with pytest.raises(ProgramError, match=r"\(reduce\).*dma_tx_queue_depth"):
        run_system([program, lambda ctx: iter(())], 2)


@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("collective", COLLECTIVES)
def test_hw_without_the_engine_is_a_typed_error_naming_the_call(
    collective, blocking,
):
    """The error names the call the program made: an allreduce, not the
    reduce it starts with; an ``i<op>``, not its blocking twin."""
    call = collective if blocking else "i" + collective

    def program(ctx):
        comm = make_comm(ctx, "empi", "hw", max_values=2)
        if blocking:
            yield from _blocking_call(comm, collective, 2)
        else:
            payload = [2.0, 2.0]
            args = {"bcast": (0, payload, 2), "reduce": (0, payload),
                    "allreduce": (payload,)}[collective]
            request = yield from getattr(comm, call)(*args)
            yield from comm.wait(request)

    with pytest.raises(ProgramError,
                       match=rf"rank 0: .*\({call}\) needs .*dma_tx_queue_depth"):
        run_system([program, lambda ctx: iter(())], 2)


@pytest.mark.parametrize("collective", COLLECTIVES)
@pytest.mark.parametrize("combo", ["empi-hw", "empi-hw-noassist"])
def test_hw_cycles_are_pinned(collective, combo):
    """Exact total cycles with the reduction assist on and off,
    blocking and non-blocking; where the assist changes nothing of the
    plan (bcast) or leaves the tree's TIE plan (reduce), an alias."""
    check_pins(collective, combo)


# ---------------------------------------------------------------------------
# Acceptance: hw strictly beats the software binomial tree at 8 workers
# ---------------------------------------------------------------------------


def bench(collective, algorithm, **overrides):
    config = SystemConfig(n_workers=8, cache_size_kb=16, **overrides)
    result = run_collective_bench(
        config,
        CollectiveBenchParams(
            collective=collective, model="empi", algorithm=algorithm,
            n_values=16, repeats=4,
        ),
    )
    assert result.validated
    return result


@pytest.mark.parametrize("collective", ["bcast", "allreduce"])
def test_hw_strictly_beats_tree_on_reference_mesh(collective):
    tree = bench(collective, "tree")
    hw = bench(collective, "hw", dma_tx_queue_depth=4)
    assert hw.op_cycles < tree.op_cycles, (
        f"{collective}: hw took {hw.op_cycles} cycles vs tree's "
        f"{tree.op_cycles} at equal payload"
    )


def test_hw_workload_double_run_is_bit_identical():
    first = bench("bcast", "hw", dma_tx_queue_depth=4)
    second = bench("bcast", "hw", dma_tx_queue_depth=4)
    assert first.total_cycles == second.total_cycles
    assert first.op_cycles == second.op_cycles
    assert first.stats["noc"] == second.stats["noc"]
    assert first.stats["workers"] == second.stats["workers"]
