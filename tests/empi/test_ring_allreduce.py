"""Ring allreduce + the engine's reduction assist (``qreduce``).

Guarantees under test:

* bit-identity — the ring schedule delivers exactly the bits of
  :func:`reference_allreduce` under the ``ring`` algorithm, on every
  rank, over the empi software path, the engine path (neighbour
  multicast descriptors + accumulate-on-receive) and the pure-SM slot
  arena, blocking and non-blocking — including non-power-of-two meshes
  (3w, 15w), vector lengths not divisible by the rank count, and
  vectors shorter than the ring (empty segments);
* cross-algorithm bit-identity — under MAX (combine-order-insensitive)
  ring, tree and hw agree exactly; under SUM the ring order is its own
  reference, distinct from the tree's;
* the reduction assist — ``hw`` allreduce with ``dma_reduce_assist``
  stays bit-identical to ``tree`` while combining at the engine;
* determinism — double runs of the qreduce-backed workloads are
  bit-identical, stats and all;
* the acceptance criterion — at 8 workers / 256 doubles the new paths
  (software ring, hw with the reduction assist, and hw ring) all beat
  both the software tree and the PR-4 engine (assist off).
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.empi.collectives import (
    make_comm,
    reference_allreduce,
    ring_segments,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.empi.cycle_pins import COLLECTIVES, check_pins


def run_system(factories, n_workers, **overrides):
    config = SystemConfig(n_workers=n_workers, **overrides)
    system = MedeaSystem(config)
    system.load_programs(factories)
    cycles = system.run(max_cycles=20_000_000)
    return system, cycles


def contributions(n_workers, n_values):
    return [
        [(-1.0) ** r * (r + 1) + 0.375 * i for i in range(n_values)]
        for r in range(n_workers)
    ]


def test_ring_segments_partition():
    assert ring_segments(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert ring_segments(7, 3) == [(0, 3), (3, 5), (5, 7)]
    assert ring_segments(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
    assert ring_segments(0, 2) == [(0, 0), (0, 0)]
    with pytest.raises(ConfigError):
        ring_segments(4, 0)


def test_ring_reference_is_its_own_combine_order():
    # Mixed magnitudes make FP addition order-sensitive: the ring and
    # tree orders genuinely differ, so bit-identity below is a real
    # statement about replicating the machine's order, not a tautology.
    magnitudes = [1e16, 1.0, -1e16, 1.0, 3.0]
    contribs = [[m + 0.5 * i for i in range(7)] for m in magnitudes]
    ring = reference_allreduce(contribs, "sum", "ring")
    tree = reference_allreduce(contribs, "sum", "tree")
    assert ring == pytest.approx(tree, rel=1e-6, abs=10.0)
    assert ring != tree


def _run_allreduce(n_workers, n_values, model, algorithm, op="sum",
                   blocking=True, **overrides):
    out = {}
    contribs = contributions(n_workers, n_values)

    def factory(rank):
        def program(ctx):
            comm = make_comm(
                ctx, model, algorithm,
                max_values=max(n_values, 1), p2p_values=0,
            )
            yield from comm.barrier()
            if blocking:
                out[rank] = yield from comm.allreduce(contribs[rank], op)
            else:
                request = yield from comm.iallreduce(contribs[rank], op)
                out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers, **overrides)
    return out, contribs


@pytest.mark.parametrize("n_workers,n_values", [
    (3, 8),    # non-power-of-two mesh, length not divisible by P
    (3, 2),    # vector shorter than the ring: empty segments
    (4, 7),    # segment sizes 2/2/2/1
    (8, 16),
])
@pytest.mark.parametrize("model,overrides", [
    ("empi", {}),
    ("empi", {"dma_tx_queue_depth": 4}),
    ("pure_sm", {}),
])
def test_ring_allreduce_matches_reference(n_workers, n_values, model,
                                          overrides):
    out, contribs = _run_allreduce(
        n_workers, n_values, model, "ring", **overrides
    )
    expected = reference_allreduce(contribs, "sum", "ring")
    for rank in range(n_workers):
        assert out[rank] == expected


def test_ring_allreduce_on_15w_mesh_non_divisible_length():
    n_workers, n_values = 15, 37  # 37 = 15*2 + 7: segments of 3 and 2
    out, contribs = _run_allreduce(n_workers, n_values, "empi", "ring")
    expected = reference_allreduce(contribs, "sum", "ring")
    for rank in range(n_workers):
        assert out[rank] == expected


@pytest.mark.parametrize("model,overrides", [
    ("empi", {}),
    ("empi", {"dma_tx_queue_depth": 4}),
    ("pure_sm", {}),
])
def test_nonblocking_ring_matches_blocking(model, overrides):
    n_workers, n_values = 4, 10
    blocking, contribs = _run_allreduce(
        n_workers, n_values, model, "ring", **overrides
    )
    nonblocking, __ = _run_allreduce(
        n_workers, n_values, model, "ring", blocking=False, **overrides
    )
    expected = reference_allreduce(contribs, "sum", "ring")
    for rank in range(n_workers):
        assert blocking[rank] == expected
        assert nonblocking[rank] == expected


def test_ring_equals_tree_and_hw_under_max():
    # MAX is insensitive to the combine order, so all three algorithms
    # must agree bit for bit — the cross-algorithm identity the ISSUE's
    # "vs tree" clause pins without pretending SUM associates.
    n_workers, n_values = 6, 9
    results = {}
    for algorithm, overrides in (
        ("ring", {}),
        ("tree", {}),
        ("hw", {"dma_tx_queue_depth": 4}),
        ("ring", {"dma_tx_queue_depth": 4}),
    ):
        out, contribs = _run_allreduce(
            n_workers, n_values, "empi", algorithm, op="max", **overrides
        )
        results[(algorithm, bool(overrides))] = out
    expected = reference_allreduce(contribs, "max", "tree")
    assert reference_allreduce(contribs, "max", "ring") == expected
    for out in results.values():
        for rank in range(n_workers):
            assert out[rank] == expected


def test_hw_assist_allreduce_is_bit_identical_to_tree():
    n_workers, n_values = 8, 11
    out, contribs = _run_allreduce(
        n_workers, n_values, "empi", "hw", dma_tx_queue_depth=4
    )
    expected = reference_allreduce(contribs, "sum", "tree")
    for rank in range(n_workers):
        assert out[rank] == expected


def test_rooted_collectives_under_ring_run_the_tree():
    # reduce/bcast with the ring algorithm fall back to the binomial
    # tree (ring is an allreduce schedule); the reference does the same.
    n_workers, n_values = 4, 6
    contribs = contributions(n_workers, n_values)
    out = {}

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "ring", max_values=n_values)
            yield from comm.barrier()
            reduced = yield from comm.reduce(1, contribs[rank])
            payload = contribs[0] if rank == 0 else None
            bcast = yield from comm.bcast(0, payload, n_values)
            out[rank] = (reduced, bcast)
            yield from comm.barrier()
        return program

    run_system([factory(r) for r in range(n_workers)], n_workers)
    from repro.empi.collectives import reference_reduce

    expected = reference_reduce(contribs, 1, "sum", "tree")
    assert reference_reduce(contribs, 1, "sum", "ring") == expected
    for rank in range(n_workers):
        reduced, bcast = out[rank]
        assert reduced == (expected if rank == 1 else None)
        assert bcast == contribs[0]


@pytest.mark.parametrize("collective", COLLECTIVES)
@pytest.mark.parametrize("combo", [
    "empi-ring", "empi-ring-dma", "sm-ring", "empi-hier", "empi-hier-chiplet",
])
def test_ring_and_hier_cycles_are_pinned(collective, combo):
    """Exact total cycles over the TIE, engine and slot-arena rings,
    blocking and non-blocking, including vectors shorter than the ring;
    a rooted collective under ring/hier plans the tree's, which is
    pinned (an alias, ``cycle_pins.ALIASES``)."""
    check_pins(collective, combo)


# ---------------------------------------------------------------------------
# Determinism and acceptance
# ---------------------------------------------------------------------------


def bench(algorithm, n_values, repeats=2, **overrides):
    config = SystemConfig(n_workers=8, cache_size_kb=16, **overrides)
    result = run_collective_bench(
        config,
        CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm=algorithm,
            n_values=n_values, repeats=repeats,
        ),
    )
    assert result.validated
    return result


@pytest.mark.parametrize("algorithm,overrides", [
    ("hw", {"dma_tx_queue_depth": 4}),     # qreduce in the binomial tree
    ("ring", {"dma_tx_queue_depth": 4}),   # qreduce around the ring
])
def test_qreduce_workload_double_run_is_bit_identical(algorithm, overrides):
    first = bench(algorithm, 32, **overrides)
    second = bench(algorithm, 32, **overrides)
    assert first.total_cycles == second.total_cycles
    assert first.op_cycles == second.op_cycles
    assert first.stats["noc"] == second.stats["noc"]
    assert first.stats["workers"] == second.stats["workers"]


def test_long_vector_allreduce_beats_tree_and_pr4_hw():
    """The ISSUE's acceptance pin: at 8w / 256 doubles every new path —
    software ring, hw with the reduction assist, hw ring — strictly
    beats both the software tree and PR 4's engine (assist off)."""
    n_values = 256
    tree = bench("tree", n_values).op_cycles
    pr4_hw = bench(
        "hw", n_values, dma_tx_queue_depth=4, dma_reduce_assist=False
    ).op_cycles
    ring_sw = bench("ring", n_values).op_cycles
    hw_assist = bench("hw", n_values, dma_tx_queue_depth=4).op_cycles
    ring_hw = bench("ring", n_values, dma_tx_queue_depth=4).op_cycles
    baseline = min(tree, pr4_hw)
    for name, cycles in (
        ("ring", ring_sw), ("hw+assist", hw_assist), ("ring+hw", ring_hw),
    ):
        assert cycles < baseline, (
            f"allreduce/{name} took {cycles} cycles vs tree {tree} / "
            f"PR-4 hw {pr4_hw} at 8w x {n_values} doubles"
        )
    # The assist itself (same hw algorithm, same combine order) must be
    # a strict win over the PR-4 engine.
    assert hw_assist < pr4_hw


def test_assist_off_reproduces_pr4_engine_behaviour():
    # With dma_reduce_assist=False the hw algorithm must still validate
    # (tree combine order through processor ops) — the sw-reduce
    # baseline the DSE crossover table carries as 'hw-na'.
    result = bench("hw", 16, dma_tx_queue_depth=4, dma_reduce_assist=False)
    assert result.validated
    stats = result.stats["workers"]
    assert all(w["dma"].get("reduce_descriptors", 0) == 0 for w in stats)


def test_qreduce_engine_stats_are_reported():
    result = bench("hw", 16, dma_tx_queue_depth=4)
    stats = result.stats["workers"]
    # Rank 0 is the reduce root: it combines at least one child stream.
    assert stats[0]["dma"]["reduce_descriptors"] >= 1
    assert stats[0]["dma"]["values_reduced"] >= 16
