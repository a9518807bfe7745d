"""Collective communication: algorithms, references, and the backend facade.

The paper's evaluation stops at barriers; its future-work section asks for
"standard parallel benchmarks", and those live or die on collectives.
This module gives MEDEA programs MPI-style collectives — broadcast,
reduce, allreduce, scatter and gather — each runnable over **both**
programming models:

* the hybrid message-passing path (:class:`EmpiCollectives`, delegating
  to the vector collectives on :class:`~repro.empi.runtime.Empi`): data
  rides the TIE streams, synchronization rides single-flit request
  tokens, and the MPMMU is never touched;
* the pure shared-memory path
  (:class:`~repro.empi.smsync.SharedMemoryCollectives`): every word is an
  uncached MPMMU round trip and every phase is a shared-memory barrier —
  the serialization cost the hybrid architecture exists to remove.

Both run the same schedules (:mod:`repro.empi.schedules`): one function
per algorithm, its rounds of transfers over a rank list.  Floating-point
reduction is not associative, so each (algorithm, op) pair fixes one
combine order and the pure-python reference functions here replicate it
*exactly*, written independently of the schedules.  Apps validate bit
for bit against these references, never against a reordered numpy
shortcut.  To add an algorithm, write one schedule function and one
independent reference.
"""

from __future__ import annotations

import enum
import typing

from repro.empi.requests import EngineCompletion
from repro.errors import ConfigError, parse_enum
from repro.kernel.trace import PHASE_ENTER, PHASE_EXIT

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pe.program import Program, ProgramContext


class CollectiveAlgorithm(enum.Enum):
    """How a collective moves data: each is one schedule function of
    :mod:`repro.empi.schedules`, run by both programming models.

    * ``linear`` — the root exchanges with every other rank directly:
      O(P) messages all touching the root, one hop of software latency;
    * ``tree`` — binomial trees: ceil(log2 P) rounds on the critical
      path, the classic large-P win;
    * ``hw`` — the linear broadcast and the tree reduce on the hardware
      collective engine (:mod:`repro.dma`): a one-to-many send is ONE
      multicast descriptor the fabric replicates, and with the reduction
      assist (``dma_reduce_assist``, the default) each combine happens
      at the engine on flit arrival (``qreduce``) instead of on the
      core.  Bit-identical to ``tree``; needs ``dma_tx_queue_depth >=
      1`` and the ``empi`` model;
    * ``ring`` — the long-vector allreduce (reduce-scatter + allgather):
      on the DMA engine when one is fitted with the reduction assist on,
      the TIE otherwise, the slot arena on ``pure_sm``;
    * ``hier`` — the chiplet allreduce: ring within each chiplet's rank
      group, tree across the group leaders and back down; the ``ring``
      bits on a flat topology.  ``empi`` only: on ``pure_sm`` every word
      serializes through the MPMMU whatever the schedule.

    ``ring`` and ``hier`` have no root, so a rooted collective under
    them runs the tree (:meth:`rooted`); scatter and gather always run
    linear.  To add an algorithm, write one schedule function and one
    independent reference of its combine order
    (:func:`reference_reduce` / :func:`reference_allreduce`).
    """

    LINEAR = "linear"
    TREE = "tree"
    HW = "hw"
    RING = "ring"
    HIER = "hier"

    @classmethod
    def parse(cls, value: "CollectiveAlgorithm | str") -> "CollectiveAlgorithm":
        return parse_enum(cls, value, "collective algorithm")

    def combine_order(self) -> "CollectiveAlgorithm":
        """The combine order a reduction under this algorithm follows.

        ``hw`` offloads data distribution and (with the assist) the
        combine *timing*, never the combine *order*: it reduces in the
        binomial-tree order, so the ``tree`` references validate it.
        ``ring`` and ``hier`` keep their own orders for allreduce; a
        *rooted* reduce under either runs the tree, which is what this
        resolves for.
        """
        if self is HW:
            return TREE
        return self

    def rooted(self) -> "CollectiveAlgorithm":
        """The algorithm a *rooted* collective (bcast/reduce) runs.

        Ring and hier are allreduce schedules — they have no root — so
        rooted collectives under them demote to the binomial tree;
        every other setting is itself.  All the machine paths (blocking,
        fragments, both backends) and the references resolve through
        this one place, so the demotion can never drift between them.
        """
        if self is RING or self is HIER:
            return TREE
        return self


class ReduceOp(enum.Enum):
    SUM = "sum"
    MAX = "max"

    @classmethod
    def parse(cls, value: "ReduceOp | str") -> "ReduceOp":
        return parse_enum(cls, value, "reduce op")


class CommModel(enum.Enum):
    """Which programming model carries the collectives."""

    EMPI = "empi"
    PURE_SM = "pure_sm"

    @classmethod
    def parse(cls, value: "CommModel | str") -> "CommModel":
        return parse_enum(cls, value, "comm model")


# Members as module constants, for the reason given in repro.noc.packet.
LINEAR, TREE, HW, RING, HIER = CollectiveAlgorithm
_SUM, __ = ReduceOp
_EMPI, __ = CommModel


def combine_cost(cost, n_values: int, op: ReduceOp) -> int:
    """Core cycles for one elementwise combine of ``n_values`` doubles.

    Shared by both backends so their timing can never drift apart —
    the hybrid-vs-SM comparison must charge identical FP work.
    """
    unit = cost.fp_add if op is _SUM else cost.fp_cmp
    return n_values * unit + cost.loop_overhead


def combine_scalar(acc: float, other: float, op: ReduceOp) -> float:
    """One element of a combine, accumulator first — the single
    definition every combiner (software loops *and* the DMA engine's
    accumulate-on-receive datapath) shares, so a reduction's bit pattern
    is fixed by its combine order alone."""
    if op is _SUM:
        return acc + other
    return acc if acc >= other else other


def combine_values(
    acc: list[float], other: list[float], op: ReduceOp
) -> list[float]:
    """Elementwise ``acc op other`` — the one combine everybody shares.

    Both backends and both reference functions call exactly this, so a
    reduction's bit pattern is fixed by its combine *order* alone.  ``op``
    is a member: whoever takes an op from outside (the collective entry
    points, the references, ``post_reduce``) parses it once, there.
    """
    if len(acc) != len(other):
        raise ConfigError(
            f"reduce length mismatch: {len(acc)} vs {len(other)}"
        )
    return [combine_scalar(a, b, op) for a, b in zip(acc, other)]


def ring_segments(n_values: int, n_ranks: int) -> list[tuple[int, int]]:
    """The ring algorithm's vector partition: one (start, stop) per rank.

    The first ``n_values % n_ranks`` segments hold one extra value, so
    any vector length works (including lengths below the rank count,
    which leave trailing segments empty).  Machine code and the ring
    reference both use exactly this partition.
    """
    if n_ranks < 1:
        raise ConfigError(f"ring needs at least one rank, got {n_ranks}")
    base, extra = divmod(n_values, n_ranks)
    bounds = []
    start = 0
    for index in range(n_ranks):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ---------------------------------------------------------------------------
# Pure-python references (exact combine orders)
# ---------------------------------------------------------------------------


def reference_reduce(
    contributions: list[list[float]],
    root: int,
    op: ReduceOp | str = ReduceOp.SUM,
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
) -> list[float]:
    """The exact vector a machine reduce must deliver at ``root``.

    ``linear``: the root combines contributions in ascending rank order
    (its own in place).  ``tree``: the binomial recursion — at mask m,
    every subtree root with relative rank ``rr`` (``rr & m == 0``)
    absorbs the finished accumulator of relative rank ``rr | m``.
    ``ring`` is an allreduce schedule; a rooted reduce under it runs the
    tree, so its reference here is the tree order.
    """
    algorithm = CollectiveAlgorithm.parse(algorithm).rooted().combine_order()
    op = ReduceOp.parse(op)
    n = len(contributions)
    if algorithm is LINEAR:
        acc = list(contributions[0])
        for rank in range(1, n):
            acc = combine_values(acc, contributions[rank], op)
        return acc
    accs = [list(contributions[(rr + root) % n]) for rr in range(n)]
    mask = 1
    while mask < n:
        for rr in range(n):
            peer = rr | mask
            if rr & mask == 0 and peer != rr and peer < n:
                accs[rr] = combine_values(accs[rr], accs[peer], op)
        mask <<= 1
    return accs[0]


def reference_allreduce(
    contributions: list[list[float]],
    op: ReduceOp | str = ReduceOp.SUM,
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
    groups: list[list[int]] | None = None,
) -> list[float]:
    """The exact allreduce vector, per algorithm.

    ``linear``/``tree``/``hw``: reduce at rank 0 + broadcast.  ``ring``:
    reduce-scatter + allgather — segment ``j`` (of the
    :func:`ring_segments` partition) accumulates around the ring
    starting at rank ``j``, each hop combining the arriving chain into
    the local contribution accumulator-first:
    ``v_k = combine(contrib[(j+k) % P], v_{k-1})``.

    ``hier`` composes the two: a ``ring`` allreduce within each rank
    group of ``groups`` (the machine takes them from
    ``ctx.rank_groups``, one group per chiplet; they must partition the
    ranks), then the ``tree`` reduce order across the group sums in
    group order.  The broadcasts back down move bits unchanged, so they
    do not appear in the combine order.  With ``groups`` None or a
    single group, ``hier`` is exactly ``ring``.
    """
    algorithm = CollectiveAlgorithm.parse(algorithm)
    op = ReduceOp.parse(op)
    if algorithm is HIER:
        if not groups:
            groups = [list(range(len(contributions)))]
        group_sums = [
            reference_allreduce(
                [contributions[rank] for rank in members], op, RING
            )
            for members in groups
        ]
        return reference_reduce(group_sums, 0, op, TREE)
    if algorithm is not RING:
        return reference_reduce(contributions, 0, op, algorithm)
    n = len(contributions)
    n_values = len(contributions[0])
    result: list[float] = []
    for j, (start, stop) in enumerate(ring_segments(n_values, n)):
        value = list(contributions[j][start:stop])
        for k in range(1, n):
            value = combine_values(
                list(contributions[(j + k) % n][start:stop]), value, op
            )
        result.extend(value)
    return result


# ---------------------------------------------------------------------------
# The backend facade
# ---------------------------------------------------------------------------


class EmpiCollectives(EngineCompletion):
    """Message-passing backend: collectives over TIE streams and tokens.

    A thin adapter presenting the shared collective interface (``barrier``
    / ``bcast`` / ``reduce`` / ``allreduce`` / ``scatter`` / ``gather``)
    on top of :class:`~repro.empi.runtime.Empi`, with the algorithm
    chosen once at construction — the sweep axis the DSE harness turns.
    """

    model = CommModel.EMPI

    def __init__(
        self,
        ctx: "ProgramContext",
        algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
    ) -> None:
        if ctx.empi is None:
            raise ConfigError("context has no eMPI endpoint bound")
        self.ctx = ctx
        self.empi = ctx.empi
        self.engine = ctx.empi.engine
        self.algorithm = CollectiveAlgorithm.parse(algorithm)

    def _phased(self, label: str, frag: "Program") -> "Program":
        """Bracket a blocking collective with zero-cycle phase notes.

        The notes cost nothing in simulated time (``note`` ops are
        zero-cycle) and let the trace exporter render each collective as
        a span on the rank's timeline.
        """
        yield ("note", PHASE_ENTER, label, None)
        result = yield from frag
        yield ("note", PHASE_EXIT, label, None)
        return result

    def barrier(self) -> "Program":
        yield from self._phased("barrier", self.empi.barrier())

    def send(self, dst_rank: int, values: list[float]) -> "Program":
        """Blocking point-to-point send of doubles (MPI_send)."""
        yield from self.empi.send_doubles(dst_rank, values)

    def recv(self, src_rank: int, n_values: int) -> "Program":
        """Blocking point-to-point receive of doubles (MPI_receive)."""
        result = yield from self.empi.recv_doubles(src_rank, n_values)
        return result

    def bcast(self, root: int, values: list[float] | None,
              n_values: int) -> "Program":
        result = yield from self._phased(
            f"bcast[{self.algorithm.value}]",
            self.empi.bcast_doubles(
                root, values, n_values, algorithm=self.algorithm
            ),
        )
        return result

    def reduce(self, root: int, values: list[float],
               op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        result = yield from self._phased(
            f"reduce[{self.algorithm.value}]",
            self.empi.reduce_doubles(
                root, values, op=op, algorithm=self.algorithm
            ),
        )
        return result

    def allreduce(self, values: list[float],
                  op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        result = yield from self._phased(
            f"allreduce[{self.algorithm.value}]",
            self.empi.allreduce_doubles(
                values, op=op, algorithm=self.algorithm
            ),
        )
        return result

    def scatter(self, root: int, chunks: list[list[float]] | None,
                n_values: int) -> "Program":
        result = yield from self._phased(
            "scatter",
            self.empi.scatter_doubles(root, chunks, n_values),
        )
        return result

    def gather(self, root: int, values: list[float]) -> "Program":
        result = yield from self._phased(
            "gather", self.empi.gather_doubles(root, values)
        )
        return result

    # -- non-blocking interface (mirrored by SharedMemoryCollectives) -------
    #
    # Thin delegation to the Empi request layer, with the backend's
    # configured algorithm applied to the collectives, so application
    # code is backend-agnostic for overlap exactly as it is for the
    # blocking collectives.  wait/test/overlap come from
    # EngineCompletion over the endpoint's engine.

    def isend(self, dst_rank: int, values: list[float]) -> "Program":
        request = yield from self.empi.isend(dst_rank, values)
        return request

    def irecv(self, src_rank: int, n_values: int) -> "Program":
        request = yield from self.empi.irecv(src_rank, n_values)
        return request

    def ibcast(self, root: int, values: list[float] | None,
               n_values: int) -> "Program":
        request = yield from self.empi.ibcast_doubles(
            root, values, n_values, algorithm=self.algorithm
        )
        return request

    def ireduce(self, root: int, values: list[float],
                op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        request = yield from self.empi.ireduce_doubles(
            root, values, op=op, algorithm=self.algorithm
        )
        return request

    def iallreduce(self, values: list[float],
                   op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        request = yield from self.empi.iallreduce_doubles(
            values, op=op, algorithm=self.algorithm
        )
        return request


def make_comm(
    ctx: "ProgramContext",
    model: CommModel | str,
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
    base_addr: int | None = None,
    max_values: int = 64,
    poll_backoff: int = 24,
    p2p_values: int = 0,
):
    """Build the collective backend for one rank's program.

    ``empi`` ignores the shared-memory arguments; ``pure_sm`` carves its
    slot arena at ``base_addr`` (default: the bottom of the shared
    segment) sized for vectors of up to ``max_values`` doubles, plus —
    when ``p2p_values`` > 0 — an n x n mailbox matrix sized for
    ``p2p_values``-double messages, backing isend/irecv.  Returns an
    object with the common collective interface (blocking and
    non-blocking).
    """
    model = CommModel.parse(model)
    if model is _EMPI:
        return EmpiCollectives(ctx, algorithm)
    from repro.empi.smsync import SharedMemoryCollectives

    return SharedMemoryCollectives(
        ctx,
        base_addr=base_addr,
        max_values=max_values,
        algorithm=algorithm,
        poll_backoff=poll_backoff,
        p2p_values=p2p_values,
    )
