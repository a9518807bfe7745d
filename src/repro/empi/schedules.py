"""Collective schedules: each algorithm's transfer pattern, written once,
and the one rule that plans a collective from them.

A schedule is a collective algorithm with no machine in it: its rounds
over the positions 0..k-1 of a rank list, each round a tuple of
transfers ``(sender, receiver, segment, combine)``.  ``segment`` is the
``(start, stop)`` slice of the vector that moves; ``combine`` folds it
into the receiver's accumulator (accumulator first), otherwise it is
copied.  A transfer from a position to itself moves nothing: that rank
folds its own contribution in at that place (the linear reduce's root).
In a round a position sends at most one segment, to one receiver or to
many (a one-to-many send).  Empty-segment transfers are dropped when a
schedule is built, so a zero-length collective moves nothing.

A *plan* is a value: the ``(ranks, schedule, path)`` pieces one bcast,
reduce or allreduce runs, from :func:`plan`, the only code that picks a
schedule, its ranks (``range(P)`` for linear and ring, rotated so the
root is position 0 for the trees, each chiplet group for ``hier``) and
its path.  A rank runs, in order, the pieces that list it, so disjoint
pieces one after the other run side by side.  Two executors only
execute: :meth:`repro.empi.runtime.EmpiCollectives._collective`
(messages, over the TIE or on the DMA engine) and
:meth:`repro.empi.smsync.SharedMemoryCollectives._collective` (the slot
arena, where a position is a slot).

To add an algorithm, write one schedule function here, one independent
reference in :mod:`repro.empi.collectives` (a reference derived from the
schedule could not catch a schedule bug) and one branch of
:func:`plan`.  Schedules are memoised per shape (size, root position,
vector length), so every group of one size shares one.

Scatter and gather stay bespoke bodies on both backends.  The slot
arena's scatter root publishes into the *receiver's* slot, while every
schedule's sender publishes its own; a schedule-run eMPI scatter beside
a bespoke slot-arena one would be a fork, not a simplification.
"""

from __future__ import annotations

import functools
import typing

from repro.empi.collectives import (
    HIER, HW, LINEAR, RING, TREE,
    CollectiveAlgorithm,
    CommModel,
    combine_cost,
    combine_values,
    ring_segments,
)
from repro.errors import ProgramError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.empi.collectives import ReduceOp
    from repro.pe.program import Program

COPY, COMBINE = False, True

#: How a piece runs: over the TIE streams or on the DMA engine (eMPI);
#: on the slot arena with one publish per round, or with a republish
#: after every combine (the tree reduce's round shape).
TIE, DMA, PUBLISH, REPUBLISH = "tie", "dma", "publish", "republish"

_EMPI = CommModel.EMPI


class Schedule:
    """The rounds of one collective over ``size`` list positions."""

    __slots__ = ("size", "rounds", "_steps")

    def __init__(self, size: int, rounds) -> None:
        self.size = size
        self.rounds = tuple(tuple(t for t in transfers if t[2][1] > t[2][0])
                            for transfers in rounds)
        self._steps: tuple | None = None

    def steps(self, position: int) -> tuple:
        """Per round, ``position``'s own transfers (it sends or receives
        them) in listed order; built for every position at the first
        call."""
        if self._steps is None:
            views: list[list] = [[] for __ in range(self.size)]
            for transfers in self.rounds:
                own: list[list] = [[] for __ in range(self.size)]
                for transfer in transfers:
                    own[transfer[0]].append(transfer)
                    if transfer[1] != transfer[0]:
                        own[transfer[1]].append(transfer)
                for view, mine in zip(views, own):
                    view.append(tuple(mine))
            self._steps = tuple(map(tuple, views))
        return self._steps[position]


def fold(acc: list[float], segment: tuple[int, int], other: list[float],
         combine: bool, op: "ReduceOp", cost) -> "Program":
    """Copy ``other`` into ``acc[segment]``, or combine it in
    (accumulator first) and charge the combine's core cycles."""
    start, stop = segment
    if combine:
        acc[start:stop] = combine_values(acc[start:stop], other, op)
        yield ("compute", combine_cost(cost, stop - start, op))
    else:
        acc[start:stop] = other


def rotated(n_ranks: int, root: int) -> tuple[int, ...]:
    """Ranks 0..n-1 rotated so ``root`` is position 0 (a rank's position
    is its relative rank in a tree rooted at ``root``)."""
    return tuple(range(root, n_ranks)) + tuple(range(root))


# -- the algorithms (memoised: every rank of a shape shares one build) ------------


@functools.lru_cache(maxsize=256)
def linear_bcast(size: int, root: int, n_values: int) -> Schedule:
    """``root`` sends the vector to every other position: one round, one
    one-to-many send, in list order."""
    return Schedule(size, [[(root, p, (0, n_values), COPY)
                            for p in range(size) if p != root]])


@functools.lru_cache(maxsize=256)
def linear_reduce(size: int, root: int, n_values: int) -> Schedule:
    """``root`` takes every contribution in list order, its own at its
    place: the first is copied, every later one combined."""
    return Schedule(size, [[(p, root, (0, n_values), p > 0)
                            for p in range(size)]])


@functools.lru_cache(maxsize=256)
def tree_bcast(size: int, n_values: int) -> Schedule:
    """Binomial broadcast from position 0: at mask m, highest first, every
    holder at position ``rel`` (a multiple of 2m) forwards to ``rel + m``,
    so each rank feeds its subtree largest half first."""
    mask, rounds = 1, []
    while mask < size:
        mask <<= 1
    while mask > 1:
        mask >>= 1
        rounds.append([(rel, rel + mask, (0, n_values), COPY)
                       for rel in range(0, size - mask, 2 * mask)])
    return Schedule(size, rounds)


@functools.lru_cache(maxsize=256)
def tree_reduce(size: int, n_values: int) -> Schedule:
    """Binomial reduce to position 0: at mask m, lowest first, every
    subtree root at position ``rel`` (a multiple of 2m) absorbs the
    finished accumulator of ``rel | m``."""
    mask, rounds = 1, []
    while mask < size:
        rounds.append([(rel + mask, rel, (0, n_values), COMBINE)
                       for rel in range(0, size - mask, 2 * mask)])
        mask <<= 1
    return Schedule(size, rounds)


@functools.lru_cache(maxsize=256)
def ring_allreduce(size: int, n_values: int) -> Schedule:
    """Reduce-scatter, then allgather, around the ring of positions.

    The vector is split by :func:`~repro.empi.collectives.ring_segments`,
    one segment per position.  For k-1 rounds position i passes segment
    (i - step) mod k to its right neighbour, which combines it in; i then
    holds the finished segment (i+1) mod k, and k-1 copying rounds
    circulate the finished segments.  Each rank moves 2(k-1)/k of the
    vector instead of the tree's log2(k) whole-vector hops.
    """
    k = size
    segments = ring_segments(n_values, k)
    return Schedule(k, [
        [(i, (i + 1) % k, segments[(i + shift - step) % k], combine)
         for i in range(k)]
        for shift, combine in ((0, COMBINE), (1, COPY))
        for step in range(k - 1)
    ])


@functools.lru_cache(maxsize=64)
def hier_allreduce(groups: tuple[tuple[int, ...], ...],
                   n_values: int) -> tuple:
    """The chiplet allreduce's plan, ``(ranks, schedule, TIE)`` pieces: a
    ring allreduce within every rank group (one per chiplet) side by
    side; then, with more than one group, tree reduce and tree bcast
    across the group leaders (each group's first rank, the gateway tile)
    and a tree bcast from each leader down its group.  Memoised per
    shape, so every rank and every call shares one plan."""
    pieces = [(group, ring_allreduce(len(group), n_values), TIE)
              for group in groups]
    if len(groups) > 1:
        leaders = tuple(group[0] for group in groups)
        pieces += [(leaders, tree_reduce(len(leaders), n_values), TIE),
                   (leaders, tree_bcast(len(leaders), n_values), TIE)]
        pieces += [(group, tree_bcast(len(group), n_values), TIE)
                   for group in groups]
    return tuple(pieces)


def plan(collective: str, algorithm: CollectiveAlgorithm, model: CommModel,
         n_ranks: int, root: int | None, n_values: int, groups,
         engine: bool, assist: bool) -> tuple:
    """The ``(ranks, schedule, path)`` pieces a bcast, reduce or allreduce
    of ``n_values`` doubles over ``n_ranks`` runs.

    A lone rank's plan is ``()``.  Rooted collectives run
    ``algorithm.rooted()`` in its combine order; a pure-SM bcast is
    always linear (the MPMMU serialises every reader whatever the
    schedule).  An allreduce is the ring, ``hier`` over ``groups`` (one
    rank group per chiplet; ``None`` is one group), or else the reduce
    at rank 0 followed by the bcast from it.  ``engine`` says a DMA
    engine is fitted and ``assist`` that its reduction assist is on: the
    DMA path runs every ``hw`` bcast, a ``hw`` reduce with the assist
    and a ``ring`` allreduce with both.
    """
    if n_ranks == 1:
        return ()
    empi = model is _EMPI
    everyone = tuple(range(n_ranks))
    if collective == "allreduce":
        if algorithm is RING:
            path = (DMA if engine and assist else TIE) if empi else PUBLISH
            return ((everyone, ring_allreduce(n_ranks, n_values), path),)
        if algorithm is HIER:
            return hier_allreduce(tuple(map(tuple, groups or (everyone,))),
                                  n_values)
        return (plan("reduce", algorithm, model, n_ranks, 0, n_values,
                     groups, engine, assist)
                + plan("bcast", algorithm, model, n_ranks, 0, n_values,
                       groups, engine, assist))
    rooted = algorithm.rooted()
    if collective == "bcast":
        if not empi:
            return ((everyone, linear_bcast(n_ranks, root, n_values), PUBLISH),)
        if rooted is TREE:
            return ((rotated(n_ranks, root), tree_bcast(n_ranks, n_values), TIE),)
        return ((everyone, linear_bcast(n_ranks, root, n_values),
                 DMA if rooted is HW else TIE),)
    if rooted.combine_order() is LINEAR:
        return ((everyone, linear_reduce(n_ranks, root, n_values),
                 TIE if empi else PUBLISH),)
    if empi:
        path = DMA if rooted is HW and assist else TIE
    else:
        path = REPUBLISH
    return ((rotated(n_ranks, root), tree_reduce(n_ranks, n_values), path),)


class Agreement:
    """The k-th collective of a communicator, held equal across its members.

    Each rank reports every collective it issues, as (collective,
    algorithm, root, vector length), where it resolves the schedule.  The
    first report of occurrence k stands; a differing later one raises
    :class:`~repro.errors.ProgramError` naming the collective, k, both
    ranks and both values.  Host-side only: zero simulated cycles.  One
    instance is shared by the ranks of a loaded system.
    """

    FIELDS = ("collective", "algorithm", "root", "n_values")

    def __init__(self) -> None:
        self._issued: dict = {}  # (communicator, rank) -> reports made
        self._open: dict = {}  # (communicator, k) -> [rank, report, seen]

    def check(self, comm: str, members: int, rank: int, *report) -> None:
        k = self._issued.get((comm, rank), 0)
        self._issued[(comm, rank)] = k + 1
        entry = self._open.setdefault((comm, k), [rank, report, 0])
        first, expected, seen = entry
        if report != expected:
            i = next(i for i in range(4) if report[i] != expected[i])
            raise ProgramError(
                f"{expected[0]} #{k} ({comm}): rank {first} issued "
                f"{self.FIELDS[i]}={expected[i]!r}, rank {rank} issued "
                f"{self.FIELDS[i]}={report[i]!r}; every member must issue "
                f"the same collectives in the same order"
            )
        if seen + 1 < members:
            entry[2] = seen + 1
        else:
            del self._open[(comm, k)]
