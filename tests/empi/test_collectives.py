"""Collectives: every op, both backends, both algorithms, exact results.

The acceptance bar for the collective layer: broadcast / reduce /
allreduce / scatter / gather each run over the message-passing path and
the shared-memory MPMMU path, and the delivered vectors match the
pure-python combine-order references bit for bit.
"""

from __future__ import annotations

import math

import pytest

from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    ReduceOp,
    combine_values,
    make_comm,
    reference_allreduce,
    reference_reduce,
)
from repro.empi.smsync import SharedMemoryChannel, SharedMemoryCollectives
from repro.errors import ConfigError, ProgramError
from repro.kernel.trace import PHASE_ENTER, PHASE_EXIT
from repro.system.config import SystemConfig
from tests.conftest import run_programs
from tests.empi.cycle_pins import SCATTER_GATHER, SCATTER_GATHER_COMBOS, measure
from tests.goldens import check

MODELS = ("empi", "pure_sm")
ALGORITHMS = ("linear", "tree")
N_VALUES = 3


def contribution(rank: int, n_values: int = N_VALUES) -> list[float]:
    """Deterministic, sign-varying, bit-portable per-rank vectors."""
    return [
        math.sin(0.31 * rank + 0.17 * i) + 0.125 * rank for i in range(n_values)
    ]


def config_for(n_workers: int) -> SystemConfig:
    return SystemConfig(n_workers=n_workers, cache_size_kb=2)


def run_collective(collective: str, model: str, algorithm: str,
                   n_workers: int, root: int = 0,
                   n_values: int = N_VALUES) -> dict[int, object]:
    results: dict[int, object] = {}

    def make_program(rank: int):
        def program(ctx):
            comm = make_comm(ctx, model, algorithm, max_values=n_values)
            mine = contribution(ctx.rank, n_values)
            if collective == "bcast":
                payload = mine if ctx.rank == root else None
                result = yield from comm.bcast(root, payload, n_values)
            elif collective == "reduce":
                result = yield from comm.reduce(root, mine)
            elif collective == "allreduce":
                result = yield from comm.allreduce(mine)
            elif collective == "scatter":
                chunks = None
                if ctx.rank == root:
                    chunks = [
                        contribution(r, n_values) for r in range(ctx.n_workers)
                    ]
                result = yield from comm.scatter(root, chunks, n_values)
            elif collective == "gather":
                result = yield from comm.gather(root, mine)
            else:  # pragma: no cover - test configuration error
                raise AssertionError(collective)
            results[ctx.rank] = result
        return program

    run_programs(config_for(n_workers),
                 *[make_program(rank) for rank in range(n_workers)])
    return results


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n_workers", [2, 5])
def test_bcast_delivers_root_payload(model, algorithm, n_workers):
    results = run_collective("bcast", model, algorithm, n_workers)
    expected = contribution(0)
    assert all(results[r] == expected for r in range(n_workers))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n_workers", [2, 5])
def test_reduce_matches_reference_bit_for_bit(model, algorithm, n_workers):
    results = run_collective("reduce", model, algorithm, n_workers)
    expected = reference_reduce(
        [contribution(r) for r in range(n_workers)], 0,
        ReduceOp.SUM, algorithm,
    )
    assert results[0] == expected
    assert all(results[r] is None for r in range(1, n_workers))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n_workers", [2, 5])
def test_allreduce_everywhere(model, algorithm, n_workers):
    results = run_collective("allreduce", model, algorithm, n_workers)
    expected = reference_allreduce(
        [contribution(r) for r in range(n_workers)], ReduceOp.SUM, algorithm
    )
    assert all(results[r] == expected for r in range(n_workers))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_workers", [2, 5])
def test_scatter_distributes_chunks(model, n_workers):
    results = run_collective("scatter", model, "linear", n_workers)
    for rank in range(n_workers):
        assert results[rank] == contribution(rank)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_workers", [2, 5])
def test_gather_collects_in_rank_order(model, n_workers):
    results = run_collective("gather", model, "linear", n_workers)
    assert results[0] == [contribution(r) for r in range(n_workers)]
    assert all(results[r] is None for r in range(1, n_workers))


@pytest.mark.parametrize("collective", ["bcast", "reduce", "gather", "scatter"])
@pytest.mark.parametrize("model", MODELS)
def test_nonzero_root(collective, model):
    """Rooted collectives must work from any root, not just rank 0."""
    n_workers, root = 3, 2
    algorithm = "tree" if collective in ("bcast", "reduce") else "linear"
    results = run_collective(collective, model, algorithm, n_workers, root=root)
    contribs = [contribution(r) for r in range(n_workers)]
    if collective == "bcast":
        assert all(results[r] == contribs[root] for r in range(n_workers))
    elif collective == "reduce":
        assert results[root] == reference_reduce(
            contribs, root, ReduceOp.SUM, "tree"
        )
    elif collective == "gather":
        assert results[root] == contribs
    else:
        for rank in range(n_workers):
            assert results[rank] == contribs[rank]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("collective", ["bcast", "gather", "allreduce"])
def test_single_value_vectors(collective, model):
    """n_values = 1: a scalar collective is the vector one of length 1
    (there is no separate scalar code path)."""
    n_workers = 4
    results = run_collective(collective, model, "linear", n_workers, n_values=1)
    contribs = [contribution(r, 1) for r in range(n_workers)]
    if collective == "bcast":
        assert all(results[r] == contribs[0] for r in range(n_workers))
    elif collective == "gather":
        assert results[0] == contribs
        assert all(results[r] is None for r in range(1, n_workers))
    else:
        expected = reference_allreduce(contribs, ReduceOp.SUM, "linear")
        assert all(results[r] == expected for r in range(n_workers))


@pytest.mark.parametrize("model", MODELS)
def test_reduce_max(model):
    results: dict[int, object] = {}

    def make_program(rank: int):
        def program(ctx):
            comm = make_comm(ctx, model, "linear", max_values=N_VALUES)
            result = yield from comm.reduce(
                0, contribution(ctx.rank), op=ReduceOp.MAX
            )
            results[ctx.rank] = result
        return program

    run_programs(config_for(3), *[make_program(r) for r in range(3)])
    expected = reference_reduce(
        [contribution(r) for r in range(3)], 0, ReduceOp.MAX, "linear"
    )
    assert results[0] == expected


@pytest.mark.parametrize("model", MODELS)
def test_single_worker_collectives_are_local(model):
    results: dict[str, object] = {}

    def program(ctx):
        comm = make_comm(ctx, model, "tree", max_values=N_VALUES)
        mine = contribution(0)
        results["bcast"] = yield from comm.bcast(0, mine, N_VALUES)
        results["reduce"] = yield from comm.reduce(0, mine)
        results["allreduce"] = yield from comm.allreduce(mine)
        results["scatter"] = yield from comm.scatter(0, [mine], N_VALUES)
        results["gather"] = yield from comm.gather(0, mine)

    run_programs(config_for(1), program)
    mine = contribution(0)
    assert results["bcast"] == mine
    assert results["reduce"] == mine
    assert results["allreduce"] == mine
    assert results["scatter"] == mine
    assert results["gather"] == [mine]


@pytest.mark.parametrize("collective", SCATTER_GATHER)
@pytest.mark.parametrize("combo", SCATTER_GATHER_COMBOS)
def test_scatter_and_gather_cycles_are_pinned(collective, combo):
    """Exact total cycles of the blocking scatter and gather, P x root
    x length, delivered vectors checked on the way."""
    check("collective_cycles", measure(collective, combo))


def _phase_notes(model: str) -> list[list[tuple[str, str]]]:
    """Every rank's phase notes over barrier, the five blocking
    collectives, an ``ireduce`` + ``wait`` and a closing barrier."""
    n_workers = 3

    def program(ctx):
        comm = make_comm(ctx, model, "tree", max_values=N_VALUES)
        mine = contribution(ctx.rank)
        yield from comm.barrier()
        yield from comm.bcast(0, mine if ctx.rank == 0 else None, N_VALUES)
        yield from comm.reduce(1, mine)
        yield from comm.allreduce(mine)
        chunks = [mine] * n_workers if ctx.rank == 2 else None
        yield from comm.scatter(2, chunks, N_VALUES)
        yield from comm.gather(0, mine)
        request = yield from comm.ireduce(0, mine)
        yield from comm.wait(request)
        yield from comm.barrier()

    system = run_programs(config_for(n_workers), *[program] * n_workers)
    notes = [[] for __ in range(n_workers)]
    rank_of = {node: rank for rank, node in system.rank_to_node.items()}
    for __, tile, kind, label, __ in system.events.program:
        if kind in (PHASE_ENTER, PHASE_EXIT):
            notes[rank_of[tile]].append((kind, label))
    return notes


def test_pure_sm_blocking_collectives_are_phase_spans():
    """One zero-cycle phase pair per blocking collective on pure-SM, as
    on eMPI (whose barriers are spans too); a request is not one."""
    labels = ["bcast[tree]", "reduce[tree]", "allreduce[tree]",
              "scatter", "gather"]
    pairs = [note for label in labels
             for note in ((PHASE_ENTER, label), (PHASE_EXIT, label))]
    barrier = [(PHASE_ENTER, "barrier"), (PHASE_EXIT, "barrier")]
    assert _phase_notes("pure_sm") == [pairs] * 3
    assert _phase_notes("empi") == [barrier + pairs + barrier] * 3


def test_backends_agree_bit_for_bit():
    """Same algorithm, either backend: the identical result vector."""
    per_model = {
        model: run_collective("allreduce", model, "tree", 5)
        for model in MODELS
    }
    assert per_model["empi"][0] == per_model["pure_sm"][0]


# -- reference functions ------------------------------------------------------


def test_reference_tree_association_differs_from_linear():
    """FP addition is not associative; the references must track order."""
    contribs = [[0.1 * (r + 1) ** 3] for r in range(5)]
    linear = reference_reduce(contribs, 0, "sum", "linear")
    tree = reference_reduce(contribs, 0, "sum", "tree")
    # Same mathematical sum, not necessarily the same bits; the tree
    # association for 5 ranks is ((0+1)+(2+3))+4 vs (((0+1)+2)+3)+4.
    assert linear[0] == pytest.approx(tree[0])


def test_combine_values_rejects_length_mismatch():
    with pytest.raises(ConfigError):
        combine_values([1.0], [1.0, 2.0], "sum")


def test_enum_parsing():
    assert CollectiveAlgorithm.parse("TREE") is CollectiveAlgorithm.TREE
    assert CollectiveAlgorithm.parse("ring") is CollectiveAlgorithm.RING
    assert ReduceOp.parse("max") is ReduceOp.MAX
    assert CommModel.parse("pure_sm") is CommModel.PURE_SM
    with pytest.raises(ConfigError):
        CollectiveAlgorithm.parse("butterfly")
    with pytest.raises(ConfigError):
        ReduceOp.parse("prod")
    with pytest.raises(ConfigError):
        CommModel.parse("openmp")


# -- shared-memory plumbing ---------------------------------------------------


def test_sm_arena_footprint_and_slot_separation():
    captured: dict[str, object] = {}

    def program(ctx):
        comm = SharedMemoryCollectives(ctx, max_values=3)
        captured["footprint"] = comm.footprint
        captured["stride"] = comm.slot_stride
        return
        yield  # pragma: no cover - makes this a generator

    run_programs(config_for(2), program, program)
    # 3 doubles = 24 bytes -> 2 lines; barrier area is 32 bytes.
    assert captured["stride"] == 32
    assert captured["footprint"] == 32 + 2 * 32


def test_sm_arena_rejects_private_base():
    def program(ctx):
        with pytest.raises(ProgramError):
            SharedMemoryCollectives(ctx, base_addr=ctx.private_base)
        return
        yield  # pragma: no cover - makes this a generator

    run_programs(config_for(1), program)


def test_sm_channel_round_trip():
    received: dict[str, object] = {}
    payloads = [[1.5, -2.25], [3.0, 4.0], [-0.5, 0.125]]

    def producer(ctx):
        channel = SharedMemoryChannel(ctx, ctx.shared_base, 2)
        for payload in payloads:
            yield from channel.send(payload)

    def consumer(ctx):
        channel = SharedMemoryChannel(ctx, ctx.shared_base, 2)
        got = []
        for __ in payloads:
            values = yield from channel.recv(2)
            got.append(values)
        received["blocks"] = got

    run_programs(config_for(2), producer, consumer)
    assert received["blocks"] == payloads


def test_sm_channel_rejects_oversized_message():
    def program(ctx):
        channel = SharedMemoryChannel(ctx, ctx.shared_base, 2)
        with pytest.raises(ProgramError):
            yield from channel.send([1.0, 2.0, 3.0])

    run_programs(config_for(1), program)
