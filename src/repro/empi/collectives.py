"""Collective communication: algorithms, references, and the one front.

The paper's evaluation stops at barriers; its future-work section asks for
"standard parallel benchmarks", and those live or die on collectives.
This module gives MEDEA programs MPI-style collectives — broadcast,
reduce, allreduce, scatter and gather — each runnable over **both**
programming models.  A collective call is accepted in one front
(:class:`Communicator`), planned by one rule
(:func:`repro.empi.schedules.plan`: the ``(ranks, schedule, path)``
pieces it runs) and run by one executor per model:

* the hybrid message-passing path
  (:class:`~repro.empi.runtime.EmpiCollectives`): data rides the TIE
  streams, synchronization rides single-flit request tokens, and the
  MPMMU is never touched;
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
shortcut.  An algorithm is one schedule function, one independent
reference here and one branch of :func:`~repro.empi.schedules.plan`.
"""

from __future__ import annotations

import enum
import typing

from repro.empi.requests import EngineCompletion
from repro.errors import ConfigError, ProgramError, parse_enum
from repro.kernel import trace

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
    linear.  An algorithm is one schedule function, one independent
    reference of its combine order (:func:`reference_reduce` /
    :func:`reference_allreduce`) and one branch of
    :func:`~repro.empi.schedules.plan`.
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
        every other setting is itself.  The one plan rule
        (:func:`~repro.empi.schedules.plan`, which every machine path of
        both backends runs) and the references resolve through this one
        place, so the demotion can never drift between them.
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
# The collective front, written once for both models
# ---------------------------------------------------------------------------


class Communicator(EngineCompletion):
    """One rank's collectives: a call is accepted here, once for both models.

    Each collective is one method.  It checks the root and the root's
    payload, parses the op and reports the call to the system's
    :class:`~repro.empi.schedules.Agreement`.  A blocking call then runs
    the engine-idle guard and is bracketed with zero-cycle phase notes,
    so the trace exporter renders it as a span; an ``i<op>`` call is
    posted in the engine's ``"collective"`` turn under the label
    ``i<op>[<algorithm>]``; a reduce returns ``None`` off the root.  The
    plan of a bcast, reduce or allreduce is chosen by one rule for both
    models, :func:`~repro.empi.schedules.plan`.  A backend supplies what
    differs between the models: its executor (``_collective``, which
    calls the rule and runs the pieces, blocking or as a posted
    request's fragment per ``frag``), its ``_scatter`` / ``_gather``
    bodies, and ``barrier``, ``send``, ``recv``, ``isend`` and
    ``irecv``; plus the attributes ``ctx``, ``engine``, ``algorithm``
    (chosen once at construction, the sweep axis the DSE harness
    turns), ``n_workers`` and ``comm_name`` (the communicator's name in
    the agreement).
    """

    model: CommModel
    algorithm: CollectiveAlgorithm
    n_workers: int
    comm_name: str

    def bcast(self, root: int, values: list[float] | None,
              n_values: int) -> "Program":
        """MPI_bcast: every rank returns the root's ``n_values`` doubles."""
        self._check_payload(root, values, n_values)
        return self._blocking("bcast", root, n_values, self._collective(
            "bcast", root, values, n_values, None, False))

    def reduce(self, root: int, values: list[float],
               op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        """MPI_reduce: elementwise ``op`` of every rank's vector at
        ``root`` (``None`` elsewhere), bit for bit
        :func:`reference_reduce`."""
        op = ReduceOp.parse(op)
        return self._blocking("reduce", root, len(values),
                              self._reduce_at_root(root, values, op, False))

    def allreduce(self, values: list[float],
                  op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        """MPI_allreduce: every rank returns :func:`reference_allreduce`."""
        op = ReduceOp.parse(op)
        return self._blocking("allreduce", None, len(values), self._collective(
            "allreduce", None, values, len(values), op, False))

    def scatter(self, root: int, chunks: list[list[float]] | None,
                n_values: int) -> "Program":
        """MPI_scatter: rank r returns the root's ``chunks[r]``.  Root-
        centric by definition, so always linear."""
        if self.ctx.rank == root:
            if chunks is None or len(chunks) != self.n_workers:
                raise ProgramError("scatter root must supply one chunk per rank")
            if any(len(chunk) != n_values for chunk in chunks):
                raise ProgramError(f"scatter chunks must hold {n_values} values")
        self._accept("scatter", LINEAR, root, n_values, True)
        return self._phase("scatter", self._scatter(root, chunks, n_values))

    def gather(self, root: int, values: list[float]) -> "Program":
        """MPI_gather: the root returns every rank's vector in rank order
        (``None`` elsewhere); always linear."""
        self._accept("gather", LINEAR, root, len(values), True)
        return self._phase("gather", self._gather(root, values))

    def ibcast(self, root: int, values: list[float] | None,
               n_values: int) -> "Program":
        """MPI_Ibcast: ``bcast`` as a request; ``wait`` returns its result."""
        self._check_payload(root, values, n_values)
        return self._posted("bcast", root, n_values, self._collective(
            "bcast", root, values, n_values, None, True))

    def ireduce(self, root: int, values: list[float],
                op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        """MPI_Ireduce: ``reduce`` as a request, the same combine order."""
        op = ReduceOp.parse(op)
        return self._posted("reduce", root, len(values),
                            self._reduce_at_root(root, values, op, True))

    def iallreduce(self, values: list[float],
                   op: ReduceOp | str = ReduceOp.SUM) -> "Program":
        """MPI_Iallreduce: ``allreduce`` as a request, the same bits."""
        op = ReduceOp.parse(op)
        return self._posted("allreduce", None, len(values), self._collective(
            "allreduce", None, values, len(values), op, True))

    # -- acceptance -------------------------------------------------------------

    def _check_payload(self, root: int, values: list[float] | None,
                       n_values: int) -> None:
        if self.ctx.rank == root and (values is None or len(values) != n_values):
            raise ProgramError("broadcast root must supply the payload")

    def _accept(self, collective: str, algorithm: CollectiveAlgorithm,
                root: int | None, n_values: int, blocking: bool) -> None:
        """Check ``root``, report the call to the agreement and refuse a
        blocking call while requests are outstanding."""
        ctx = self.ctx
        if root is not None and not 0 <= root < self.n_workers:
            raise ProgramError(
                f"rank {ctx.rank}: {collective} root {root} is not a rank "
                f"of this communicator (0..{self.n_workers - 1})"
            )
        if ctx.agreement is not None:
            ctx.agreement.check(self.comm_name, self.n_workers, ctx.rank,
                                collective, algorithm.value, root, n_values)
        if blocking:
            self._check_engine_idle(collective, algorithm)

    def _blocking(self, collective: str, root: int | None, n_values: int,
                  body: "Program") -> "Program":
        self._accept(collective, self.algorithm, root, n_values, True)
        label = f"{collective}[{self.algorithm.value}]"
        return self._phase(label, self._span(label, body))

    def _posted(self, collective: str, root: int | None, n_values: int,
                body: "Program") -> "Program":
        """Post ``body`` through the collective turn: every rank posts its
        collectives in the same order (the MPI-3 rule), and a later one
        queues behind an unfinished earlier one instead of interleaving
        with it on the streams or the slot arena."""
        self._accept(collective, self.algorithm, root, n_values, False)
        label = f"i{collective}[{self.algorithm.value}]"
        return self.engine.post(
            self.engine.in_turn("collective", self._span(label, body)), label
        )

    def _reduce_at_root(self, root: int, values: list[float], op: ReduceOp,
                        frag: bool) -> "Program":
        """A reduce's body: the backend runs its plan; the accumulator is
        the result at ``root``, ``None`` elsewhere."""
        acc = yield from self._collective("reduce", root, values,
                                          len(values), op, frag)
        return acc if self.ctx.rank == root else None

    def _phase(self, label: str, body: "Program") -> "Program":
        """Bracket a blocking call with zero-cycle phase notes, which the
        trace exporter renders as a span on the rank's timeline."""
        yield ("note", trace.PHASE_ENTER, label, None)
        result = yield from body
        yield ("note", trace.PHASE_EXIT, label, None)
        return result

    def _span(self, label: str, body: "Program") -> "Program":
        """The backend's wrapper of one collective body: none here; eMPI
        binds its critical-path span
        (:meth:`~repro.empi.runtime.Empi._cp_span`) under attribution."""
        return body


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

    A collective call is accepted in one front (:class:`Communicator`)
    and planned by :func:`~repro.empi.schedules.plan`; a backend
    supplies its executor.  ``empi`` ignores
    the shared-memory arguments; ``pure_sm`` carves its slot arena at
    ``base_addr`` (default: the bottom of the shared segment) sized for
    vectors of up to ``max_values`` doubles, plus — when ``p2p_values``
    > 0 — an n x n mailbox matrix sized for ``p2p_values``-double
    messages, backing isend/irecv.
    """
    model = CommModel.parse(model)
    if model is _EMPI:
        from repro.empi.runtime import EmpiCollectives

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
