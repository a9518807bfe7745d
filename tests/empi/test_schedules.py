"""One schedule per algorithm, run by both executors, held to the references.

Each collective algorithm is one schedule function in
:mod:`repro.empi.schedules` and one branch of its plan rule
(:func:`~repro.empi.schedules.plan`); the message-passing executor (TIE
or DMA flavour) and the slot-arena executor run the plan.  Here:

* a drawn differential: P, vector length (zero included), root, op,
  path, collective and blocking-vs-``i<op>`` drawn (scatter and gather
  blocking only); every rank's result must equal the independent
  reference of :mod:`repro.empi.collectives` bit for bit (40 examples;
  ``MEDEA_FULL=1`` runs 400);
* a zero-length collective returns ``[]`` on every path, and a lone
  rank's collective returns its input and moves nothing;
* a communicator whose members disagree on their k-th collective, or a
  root outside the communicator, ends in a typed
  :class:`~repro.errors.ProgramError` naming it (the ``typed_error``
  tests, also run under ``python -O``);
* the schedules' shapes and the plans, read without simulating: two
  flat combinations of the pin table plan equally exactly where
  ``cycle_pins.ALIASES`` says so.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse.registry import full_scale_requested
from repro.empi.collectives import (
    make_comm,
    reference_allreduce,
    reference_reduce,
)
from repro.empi.schedules import (
    TIE,
    hier_allreduce,
    linear_bcast,
    linear_reduce,
    ring_allreduce,
    tree_bcast,
    tree_reduce,
)
from repro.errors import ProgramError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.empi.cycle_pins import (
    ALIASES,
    COLLECTIVES,
    COMBOS,
    SCATTER_GATHER,
    grid,
    plan_of,
)

#: Every path of the pin table; the chiplet package sized to fit any P.
PATHS = {
    name: (combo.model, combo.algorithm,
           {k: v for k, v in combo.overrides.items() if k != "chiplet_grid"})
    for name, combo in COMBOS.items()
}


def run(collective, path, contributions, root=0, op="sum", blocking=True,
        n_values=None, roots=None):
    """Run one collective on every rank; return (results, system).

    ``contributions[r]`` is rank r's vector (a bcast reads only the
    root's; a scatter root sends ``contributions[r]`` to rank r);
    ``n_values`` defaults to each rank's own length and ``roots`` to
    ``root`` on every rank.
    """
    model, algorithm, overrides = PATHS[path]
    n_workers = len(contributions)
    out = {}

    def factory(rank):
        def program(ctx):
            mine = contributions[rank]
            length = len(mine) if n_values is None else n_values[rank]
            my_root = root if roots is None else roots[rank]
            comm = make_comm(ctx, model, algorithm,
                             max_values=max([1, *map(len, contributions)]))
            if collective == "bcast":
                args = (my_root, mine if rank == my_root else None, length)
            elif collective == "reduce":
                args = (my_root, mine, op)
            elif collective == "scatter":
                args = (my_root, contributions if rank == my_root else None,
                        length)
            elif collective == "gather":
                args = (my_root, mine)
            else:
                args = (mine, op)
            yield from comm.barrier()
            if blocking:
                out[rank] = yield from getattr(comm, collective)(*args)
            else:
                request = yield from getattr(comm, "i" + collective)(*args)
                out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    system = MedeaSystem(SystemConfig(
        n_workers=n_workers, cache_size_kb=2, **overrides
    ))
    system.load_programs([factory(r) for r in range(n_workers)])
    system.run(max_cycles=2_000_000)
    return out, system


def expected(collective, path, contributions, root, op, groups):
    algorithm = PATHS[path][1]
    n_workers = len(contributions)
    if collective == "bcast":
        return dict.fromkeys(range(n_workers), contributions[root])
    if collective == "reduce":
        result = dict.fromkeys(range(n_workers))
        result[root] = reference_reduce(contributions, root, op, algorithm)
        return result
    if collective == "scatter":
        return dict(enumerate(contributions))
    if collective == "gather":
        result = dict.fromkeys(range(n_workers))
        result[root] = contributions
        return result
    return dict.fromkeys(range(n_workers), reference_allreduce(
        contributions, op, algorithm, groups=groups
    ))


def bits(results):
    """Results with every double as its exact bits (-0.0 is not 0.0); a
    gather root's list of vectors keeps its shape."""
    def exact(value):
        if value is None:
            return None
        if isinstance(value, float):
            return value.hex()
        return [exact(item) for item in value]

    return {rank: exact(value) for rank, value in results.items()}


# -- the drawn differential ------------------------------------------------------


@settings(
    max_examples=400 if full_scale_requested() else 40,
    derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_workers=st.sampled_from(range(1, 10)),
    n_values=st.sampled_from(range(21)),
    root_draw=st.integers(0, 8),
    op=st.sampled_from(["sum", "max"]),
    path=st.sampled_from(sorted(PATHS)),
    collective=st.sampled_from(COLLECTIVES + SCATTER_GATHER),
    blocking=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_drawn_collectives_match_the_references(
    n_workers, n_values, root_draw, op, path, collective, blocking, seed,
):
    rng = random.Random(seed)
    contributions = [[rng.uniform(-4.0, 4.0) for __ in range(n_values)]
                     for __ in range(n_workers)]
    root = root_draw % n_workers
    blocking = blocking or collective in SCATTER_GATHER  # no i* form
    out, system = run(collective, path, contributions, root, op, blocking)
    assert bits(out) == bits(
        expected(collective, path, contributions, root, op, system.rank_groups)
    ), f"{collective} on {path}, P={n_workers}, n={n_values}, root {root}"


# -- zero-length collectives -----------------------------------------------------


#: Every (collective, blocking) call there is: scatter and gather have no
#: ``i*`` form.
CALLS = [(collective, blocking) for collective in COLLECTIVES + SCATTER_GATHER
         for blocking in (True, False)
         if blocking or collective not in SCATTER_GATHER]


@pytest.mark.parametrize("collective,blocking", CALLS)
@pytest.mark.parametrize("path", sorted(PATHS))
def test_zero_length_collectives_return_empty(path, collective, blocking):
    out, __ = run(collective, path, [[], []], root=1, blocking=blocking)
    if collective == "reduce":
        assert out == {0: None, 1: []}
    elif collective == "gather":
        assert out == {0: None, 1: [[], []]}
    else:
        assert out == {0: [], 1: []}


@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("collective", COLLECTIVES)
@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_lone_ranks_collective_moves_nothing(path, collective, blocking):
    """At P = 1 the plan is empty: the input comes back, no flit is
    injected and the MPMMU receives no request."""
    out, system = run(collective, path, [[1.5, -2.0, 0.25]],
                      blocking=blocking)
    assert out == {0: [1.5, -2.0, 0.25]}
    assert system.fabric.stats["flits_injected"] == 0
    assert system.mpmmu.stats["requests_received"] == 0


# -- disagreeing members: typed errors -------------------------------------------

MISMATCH_PATHS = ["empi-linear", "empi-tree", "empi-ring", "empi-ring-dma",
                  "empi-hw", "sm-linear", "sm-tree", "sm-ring"]


@pytest.mark.parametrize("lengths", [(4, 3, 4, 4), (4, 5, 4, 4)])
@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("path", MISMATCH_PATHS)
def test_mismatched_lengths_raise_a_typed_error(path, blocking, lengths):
    contributions = [[float(r + 1)] * n for r, n in enumerate(lengths)]
    with pytest.raises(ProgramError) as caught:
        run("allreduce", path, contributions, blocking=blocking)
    message = str(caught.value)
    assert message.startswith("allreduce #0 ")
    assert "rank 1 issued n_values=" + str(lengths[1]) in message
    assert "n_values=4" in message


@pytest.mark.parametrize("path", ["empi-tree", "empi-hw", "sm-linear"])
def test_mismatched_bcast_lengths_raise_a_typed_error(path):
    with pytest.raises(ProgramError, match=r"bcast #0 .*n_values=3.*n_values=2"
                       r"|bcast #0 .*n_values=2.*n_values=3"):
        run("bcast", path, [[1.0, 2.0, 3.0]] * 3, n_values=[3, 3, 2])


def test_mismatched_collectives_raise_a_typed_error():
    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "tree")
            yield from comm.allreduce([1.0])
            if rank == 2:
                yield from comm.reduce(1, [2.0])
            else:
                yield from comm.bcast(1, [2.0] if rank == 1 else None, 1)
        return program

    system = MedeaSystem(SystemConfig(n_workers=3, cache_size_kb=2))
    system.load_programs([factory(r) for r in range(3)])
    with pytest.raises(ProgramError,
                       match=r"#1 \(empi\): rank \d issued collective="):
        system.run(max_cycles=200_000)


@pytest.mark.parametrize("root", [3, -1])
@pytest.mark.parametrize("collective,blocking",
                         [call for call in CALLS if call[0] != "allreduce"])
@pytest.mark.parametrize("path", ["empi-linear", "empi-tree",
                                  "sm-linear", "sm-tree"])
def test_out_of_range_root_is_a_typed_error(path, collective, blocking, root):
    with pytest.raises(ProgramError,
                       match=rf"rank \d: {collective} root {root} is not a "
                             rf"rank of this communicator \(0\.\.2\)"):
        run(collective, path, [[1.0, 2.0]] * 3, root=root, blocking=blocking)


@pytest.mark.parametrize("path", ["empi-linear", "sm-linear"])
@pytest.mark.parametrize("collective", SCATTER_GATHER)
def test_scatter_and_gather_lengths_disagreeing_are_a_typed_error(
    path, collective,
):
    # Rank 1 passes 3 values where the others pass 4 (a scatter root's
    # chunks are all of 4: only rank 1's n_values disagrees).
    lengths = [4, 3, 4]
    if collective == "scatter":
        contributions = [[float(r + 1)] * 4 for r in range(3)]
    else:
        contributions = [[float(r + 1)] * n for r, n in enumerate(lengths)]
    with pytest.raises(ProgramError) as caught:
        run(collective, path, contributions, n_values=lengths)
    message = str(caught.value)
    assert message.startswith(f"{collective} #0 ")
    assert "rank 1 issued n_values=3" in message


@pytest.mark.parametrize("path", ["empi-linear", "sm-linear"])
def test_scatter_roots_disagreeing_are_a_typed_error(path):
    with pytest.raises(ProgramError,
                       match=r"scatter #0 .*root=[01], rank \d issued root=[01]"):
        run("scatter", path, [[1.0, 2.0]] * 3, roots=[0, 0, 1])


# -- the schedules, read without simulating --------------------------------------


def pairs(schedule):
    return [[(src, dst) for src, dst, __, __ in transfers]
            for transfers in schedule.rounds]


def test_a_position_sees_its_own_transfers_in_listed_order():
    schedule = linear_bcast(4, 2, 5)
    assert schedule.steps(2) == (((2, 0, (0, 5), False), (2, 1, (0, 5), False),
                                  (2, 3, (0, 5), False)),)
    assert schedule.steps(0) == (((2, 0, (0, 5), False),),)


def test_linear_reduce_folds_the_root_in_at_its_place():
    assert linear_reduce(3, 1, 4).rounds == ((
        (0, 1, (0, 4), False), (1, 1, (0, 4), True), (2, 1, (0, 4), True),
    ),)


def test_binomial_trees_from_position_zero():
    assert pairs(tree_reduce(5, 1)) == [[(1, 0), (3, 2)], [(2, 0)], [(4, 0)]]
    assert pairs(tree_bcast(5, 1)) == [[(0, 4)], [(0, 2)], [(0, 1), (2, 3)]]


def test_empty_segments_are_dropped_rounds_kept():
    schedule = ring_allreduce(4, 2)
    assert len(schedule.rounds) == 6
    assert all(len(transfers) == 2 for transfers in schedule.rounds)
    assert linear_reduce(2, 0, 0).rounds == ((),)
    # Segments 2 and 3 are empty: position 3 sits the first round out.
    assert pairs(schedule)[0] == [(0, 1), (1, 2)] and schedule.steps(3)[0] == ()


def test_hier_plans_the_ring_per_group_then_the_leaders():
    assert hier_allreduce(((0, 1, 2),), 6) == (
        ((0, 1, 2), ring_allreduce(3, 6), TIE),)
    groups = ((0, 1), (2, 3, 4))
    assert hier_allreduce(groups, 6) == (
        ((0, 1), ring_allreduce(2, 6), TIE),
        ((2, 3, 4), ring_allreduce(3, 6), TIE),
        ((0, 2), tree_reduce(2, 6), TIE), ((0, 2), tree_bcast(2, 6), TIE),
        ((0, 1), tree_bcast(2, 6), TIE), ((2, 3, 4), tree_bcast(3, 6), TIE),
    )


#: The combinations on the flat mesh (the chiplet ones build another
#: machine, so a plan equal to a flat one's is no alias).
FLAT = [name for name, combo in COMBOS.items()
        if "topology_kind" not in combo.overrides]


def alias_pairs() -> set:
    """Every (collective, a, b) that ``ALIASES`` says plan alike: the
    members of one class, a pinned combination and its aliases."""
    pairs = set()
    for collective in COLLECTIVES:
        classes: dict = {}
        for alias, pinned in ALIASES[collective].items():
            classes.setdefault(pinned, {pinned}).add(alias)
        for members in classes.values():
            pairs |= {(collective, a, b) for a, b in itertools.combinations(
                sorted(members, key=FLAT.index), 2)}
    return pairs


def test_plans_are_equal_exactly_for_the_listed_aliases():
    equal = set()
    for collective in COLLECTIVES:
        points = {arguments[:3] for arguments in grid(collective, FLAT[0]).values()}
        for a, b in itertools.combinations(FLAT, 2):
            same = {plan_of(collective, a, *point) == plan_of(collective, b, *point)
                    for point in points}
            assert len(same) == 1, (
                f"{collective}: {a} and {b} plan alike at some table points only"
            )
            if same.pop():
                equal.add((collective, a, b))
    listed = alias_pairs()
    assert equal == listed and len(equal) == 22, (
        f"equal plans not listed: {sorted(equal - listed)}; "
        f"listed aliases planning differently: {sorted(listed - equal)}"
    )
