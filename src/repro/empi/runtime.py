"""The eMPI runtime: send / receive / barrier over the TIE ports.

Data messages travel on the per-source in-order streams the TIE hardware
reassembles; synchronization tokens travel as single *request* flits (the
SUB-TYPE the paper reserves for requests), so barriers never perturb data
reassembly and never touch the MPMMU — the core claim of the paper.

Two barrier algorithms are provided:

* ``central`` — workers send an ARRIVE token to rank 0, which answers with
  RELEASE tokens; O(P) tokens, two token hops of latency;
* ``dissemination`` — ceil(log2 P) rounds of pairwise tokens; more
  traffic, lower latency at larger core counts.

Tokens carry an epoch (mod 256) so back-to-back barriers cannot steal each
other's tokens; early tokens are stashed and matched later, giving the
runtime MPI-like out-of-band tolerance with a tiny footprint.

:class:`Empi` is the transport: tokens, barriers, point-to-point,
request fragments, the flavours and the critical-path span and hop
notes.  A collective call is accepted in one front
(:class:`~repro.empi.collectives.Communicator`), and its plan — the
``(ranks, schedule, path)`` pieces — is chosen by one rule,
:func:`repro.empi.schedules.plan`, for both programming models.
:class:`EmpiCollectives` only executes: its ``_collective`` runs any
plan for one rank, each piece over the *point-to-point flavour* its path
names (:class:`_TieFlavour`, :class:`_DmaFlavour`).  What varies between
the blocking op, the non-blocking request and the DMA-engine offload is
only the flavour.

* To add an **algorithm**: write one schedule function, one independent
  reference (of its combine order, in :mod:`repro.empi.collectives`) and
  one branch of :func:`~repro.empi.schedules.plan`.  Blocking,
  non-blocking, engine-offloaded and shared-memory variants then exist
  by construction.
* To add a **flavour** (say, in-switch combining): write one class with
  the generator methods ``send`` (to a list of ranks) / ``recv`` /
  ``recv_combine`` (and ``expect_combine`` when ``prepost`` is set),
  emitting its ``cph`` hop notes at send/receive completion, name its
  path in :mod:`repro.empi.schedules`, choose it in
  :func:`~repro.empi.schedules.plan` and select it in ``_collective``
  beside the existing two.  No schedule function changes.
"""

from __future__ import annotations

import enum
import typing

from repro.empi.collectives import (
    HW,
    CollectiveAlgorithm,
    CommModel,
    Communicator,
    ReduceOp,
    combine_cost,
    combine_values,
)
from repro.empi.requests import (
    RESCHEDULE,
    EngineCompletion,
    ProgressEngine,
)
from repro.empi.schedules import DMA, fold, plan
from repro.errors import ConfigError, ProgramError, parse_enum
from repro.kernel.trace import CP_ENTER, CP_EXIT, CP_HOP
from repro.mem.values import pack_doubles, unpack_doubles

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pe.program import Program, ProgramContext


class BarrierAlgorithm(enum.Enum):
    CENTRAL = "central"
    DISSEMINATION = "dissemination"


class _Token(enum.IntEnum):
    ARRIVE = 1
    RELEASE = 2
    DISSEM = 3


# Members as module constants, for the reason given in repro.noc.packet.
_CENTRAL, __ = BarrierAlgorithm
_ARRIVE, _RELEASE, _DISSEM = _Token


def _encode(opcode: _Token, epoch: int, aux: int = 0) -> int:
    return (int(opcode) << 16) | ((epoch & 0xFF) << 8) | (aux & 0xFF)


def _decode(word: int) -> tuple[int, int, int]:
    return (word >> 16) & 0xFF, (word >> 8) & 0xFF, word & 0xFF


class _TieFlavour:
    """Software point-to-point over the TIE streams; combines on the core.

    ``frag`` picks the transport once: blocking ``send``/``recv`` ops
    (the core parks until the TIE is done) or the rescheduling
    TX-descriptor / status-poll fragments that non-blocking requests are
    built from.  Same wire protocol either way, so the bits agree.
    """

    def __init__(self, empi: "Empi", frag: bool) -> None:
        self._empi = empi
        if frag:
            self._send = empi._frag_send_doubles
            self._recv = empi._frag_recv_doubles
        else:
            self._send = empi.ctx.send_doubles
            self._recv = empi.ctx.recv_doubles

    def send(self, dst_ranks: list[int], values: list[float]) -> "Program":
        """One stream per receiver, in order, each with its hop note."""
        for dst_rank in dst_ranks:
            yield from self._send(dst_rank, values)
            yield from self._empi._cp_hop("snd", dst_rank)

    def recv(self, src_rank: int, n_values: int) -> "Program":
        values = yield from self._recv(src_rank, n_values)
        yield from self._empi._cp_hop("rcv", src_rank)
        return values

    prepost = False  # no expect_combine: recv_combine does all the work

    def recv_combine(self, src_rank: int, acc: list[float],
                     op: ReduceOp) -> "Program":
        """Receive ``len(acc)`` doubles and fold them in, accumulator first."""
        other = yield from self.recv(src_rank, len(acc))
        acc = combine_values(acc, other, op)
        yield ("compute", combine_cost(self._empi.ctx.cost, len(acc), op))
        return acc


class _DmaFlavour:
    """Point-to-point on the DMA engine; combines at the engine.

    Sends are queued multicast descriptors (single-member for one
    peer).  Receive-and-combine is an accumulate-on-receive descriptor,
    posted by :meth:`expect_combine` *before* the matching send so the
    engine folds the peer's flits in as they arrive, and collected by
    :meth:`recv_combine`.  Plain receives come off the multicast stream.
    ``frag`` is the pause between descriptor/status polls: blocking
    callers spin (ticking the timeout guard, named ``label``), request
    fragments reschedule so overlapped compute runs while the engines
    stream and combine.
    """

    prepost = True

    def __init__(self, empi: "Empi", frag: bool, label: str) -> None:
        self._empi = empi
        self._frag = frag
        self._label = label
        # Status-polled take for fragments, core-parking receive
        # otherwise.  Fragments need no per-source turn here: the
        # collective turn already runs one collective body at a time.
        self._take = "tmrecv" if frag else "mrecv"

    def _poll(self, op: tuple, what: str, hop: tuple = ()) -> "Program":
        """Re-issue ``op`` until the engine accepts or completes it, then
        emit the ``hop`` note ops (from :meth:`Empi._cp_hop`) it completes."""
        guard = None
        if not self._frag:
            guard = self._empi.engine.guard(f"{self._label} {what}")
        while True:
            result = yield op
            if result is not None and result is not False:
                yield from hop
                return result
            if self._frag:
                yield RESCHEDULE
            elif guard is not None:
                guard.tick()

    def send(self, dst_ranks: list[int], values: list[float]) -> "Program":
        """One multicast descriptor for all of ``dst_ranks``; its hop
        note names the receiver, or ``'*'`` for more than one."""
        node_of = self._empi.ctx.node_of
        group = 0
        for dst_rank in dst_ranks:
            group |= 1 << node_of(dst_rank)
        peer = dst_ranks[0] if len(dst_ranks) == 1 else "*"
        return self._poll(
            ("qmcast", group, pack_doubles(values)), "multicast post",
            self._empi._cp_hop("snd", peer),
        )

    def recv(self, src_rank: int, n_values: int) -> "Program":
        words = yield from self._poll(
            (self._take, self._empi.ctx.node_of(src_rank), 2 * n_values),
            "multicast receive", self._empi._cp_hop("rcv", src_rank),
        )
        return unpack_doubles(words)

    def expect_combine(self, src_rank: int, acc: list[float],
                       op: ReduceOp) -> "Program":
        return self._poll(
            ("qreduce", self._empi.ctx.node_of(src_rank), acc, op.value),
            "qreduce post",
        )

    def recv_combine(self, src_rank: int, acc: list[float],
                     op: ReduceOp) -> "Program":
        return self._poll(
            ("qrpoll",), "engine combine", self._empi._cp_hop("rcv", src_rank)
        )


_Flavour = _TieFlavour | _DmaFlavour


class Empi(EngineCompletion):
    """Per-rank eMPI endpoint; bound to a program context as ``ctx.empi``."""

    def __init__(
        self,
        ctx: "ProgramContext",
        barrier_algorithm: BarrierAlgorithm | str = BarrierAlgorithm.CENTRAL,
    ) -> None:
        self.ctx = ctx
        self.barrier_algorithm = parse_enum(
            BarrierAlgorithm, barrier_algorithm, "barrier algorithm"
        )
        self._epoch = 0
        self._dissem_epoch = 0
        #: Early tokens: (src_node, opcode, epoch, aux).
        self._stash: list[tuple[int, int, int, int]] = []
        self.barriers = 0
        #: The cooperative progress engine driving non-blocking requests.
        #: Timeouts (off by default) arm both the engine's waits and the
        #: blocking descriptor spin loops (_DmaFlavour._poll), so a
        #: recovery that fails raises a typed error naming
        #: rank/op/algorithm instead of spinning silently.
        self.engine = ProgressEngine()
        self.engine.configure_timeout(
            ctx.rank,
            ctx.empi_timeout_cycles,
            ctx.empi_timeout_retries,
            report=ctx.report,
        )
        #: Critical-path attribution (TelemetryConfig.attribution): when
        #: armed, every collective is bracketed with zero-cycle CP_ENTER /
        #: CP_EXIT events (:meth:`_cp_span`) and its completed
        #: sends/receives emit CP_HOP events, so the extractor can thread
        #: causal edges through the op.  Off by default: _cp_key stays
        #: None and no note is built.
        self._cp_counts: dict[str, int] = {}
        self._cp_key: str | None = None

    def _cp_span(self, label: str, body: "Program") -> "Program":
        """Bracket one collective occurrence with CP_ENTER/CP_EXIT events.

        The eMPI backend wraps each collective body in this span when
        attribution is armed.  The occurrence key is ``label#k`` (k = how
        many times this rank ran the label), which aligns across ranks by
        the SPMD same-order rule.  Spans never nest: a blocking
        collective is refused while a request is outstanding, and posted
        collectives run one at a time in the collective turn.
        """
        count = self._cp_counts.get(label, 0)
        self._cp_counts[label] = count + 1
        key = f"{label}#{count}"
        self._cp_key = key
        yield ("note", CP_ENTER, key, None)
        try:
            result = yield from body
        finally:
            self._cp_key = None
        yield ("note", CP_EXIT, key, None)
        return result

    def _cp_hop(self, kind: str, peer: object) -> tuple:
        """The ops (``yield from`` them) marking one completed hop of the
        current span: a single note when attribution is armed, nothing
        otherwise.  ``kind`` is 'snd'/'rcv', ``peer`` a rank or '*'."""
        if self._cp_key is None:
            return ()
        return (("note", CP_HOP, self._cp_key, (kind, peer)),)

    # -- point-to-point ---------------------------------------------------------

    def send(self, dst_rank: int, words: list[int]) -> "Program":
        """MPI_send: stream ``words`` to ``dst_rank`` (blocking-local)."""
        self._check_engine_idle("send")
        yield self.ctx.send_words(dst_rank, words)

    def recv(self, src_rank: int, n_words: int) -> "Program":
        """MPI_receive: wait for ``n_words`` from ``src_rank``."""
        self._check_engine_idle("recv")
        words = yield self.ctx.recv_words(src_rank, n_words)
        return words

    def send_doubles(self, dst_rank: int, values: list[float]) -> "Program":
        self._check_engine_idle("send")
        yield from self.ctx.send_doubles(dst_rank, values)

    def recv_doubles(self, src_rank: int, n_values: int) -> "Program":
        self._check_engine_idle("recv")
        values = yield from self.ctx.recv_doubles(src_rank, n_values)
        return values

    # -- token plumbing -------------------------------------------------------------

    def _send_token(self, dst_rank: int, opcode: _Token, epoch: int, aux: int = 0
                    ) -> "Program":
        yield ("sendreq", self.ctx.node_of(dst_rank), _encode(opcode, epoch, aux))

    def _recv_token(
        self, opcode: _Token, epoch: int, src_node: int | None = None,
        aux: int | None = None,
    ) -> "Program":
        """Wait for a matching token, stashing any strangers that arrive."""
        stash = self._stash
        while True:
            for index, (t_src, t_op, t_epoch, t_aux) in enumerate(stash):
                if (
                    t_op == int(opcode)
                    and t_epoch == (epoch & 0xFF)
                    and (src_node is None or t_src == src_node)
                    and (aux is None or t_aux == aux)
                ):
                    del stash[index]
                    return t_src, t_aux
            src, word = yield ("recvreq",)
            got_op, got_epoch, got_aux = _decode(word)
            stash.append((src, got_op, got_epoch, got_aux))

    # -- MPI_barrier -------------------------------------------------------------------

    def barrier(self) -> "Program":
        """MPI_barrier over all workers, using the configured algorithm."""
        self.barriers += 1
        if self.barrier_algorithm is _CENTRAL:
            yield from self._barrier_central()
        else:
            yield from self._barrier_dissemination()

    def _barrier_central(self) -> "Program":
        ctx = self.ctx
        epoch = self._epoch
        self._epoch = (epoch + 1) & 0xFF
        n = ctx.n_workers
        if n == 1:
            return
        if ctx.rank == 0:
            for __ in range(n - 1):
                yield from self._recv_token(_ARRIVE, epoch)
            for rank in range(1, n):
                yield from self._send_token(rank, _RELEASE, epoch)
        else:
            yield from self._send_token(0, _ARRIVE, epoch)
            yield from self._recv_token(_RELEASE, epoch, src_node=ctx.node_of(0))

    def _barrier_dissemination(self) -> "Program":
        ctx = self.ctx
        epoch = self._dissem_epoch
        self._dissem_epoch = (epoch + 1) & 0xFF
        n = ctx.n_workers
        if n == 1:
            return
        distance = 1
        round_index = 0
        while distance < n:
            to_rank = (ctx.rank + distance) % n
            from_rank = (ctx.rank - distance) % n
            yield from self._send_token(to_rank, _DISSEM, epoch, aux=round_index)
            yield from self._recv_token(
                _DISSEM, epoch,
                src_node=ctx.node_of(from_rank), aux=round_index,
            )
            distance <<= 1
            round_index += 1

    # -- non-blocking point-to-point (request/progress engine) ---------------------------
    #
    # Each posts a *communication fragment* on the engine: TX descriptors
    # and status polls, so the core keeps running while the TIE streams.
    # Progress happens inside wait/waitall and inside overlap() (see
    # :class:`~repro.empi.requests.EngineCompletion`) — the cooperative
    # analogue of MPI progress.

    def isend(self, dst_rank: int, values: list[float]) -> "Program":
        """MPI_Isend: post a send of doubles; complete via ``wait``."""
        return self.engine.post(
            self._frag_send_doubles(dst_rank, values), f"isend->{dst_rank}"
        )

    def irecv(self, src_rank: int, n_values: int) -> "Program":
        """MPI_Irecv: post a receive of doubles; ``wait`` returns them."""
        return self.engine.post(
            self._frag_recv_doubles(src_rank, n_values), f"irecv<-{src_rank}"
        )

    # -- communication fragments -----------------------------------------------------------

    def _frag_send_doubles(self, dst_rank: int, values: list[float]) -> "Program":
        """Stream ``values`` to ``dst_rank`` via a TX descriptor, in the TX
        turn (one message in flight at a time, hardware constraint)."""
        return self.engine.in_turn("tx", self._tx_descriptor(
            self.ctx.node_of(dst_rank), pack_doubles(values)))

    def _tx_descriptor(self, dst_node: int, words: list[int]) -> "Program":
        """Confirm the port idle, post the descriptor and poll the status
        register until the TIE drained it — MPI's "send complete = buffer
        reusable" point."""
        while not (yield ("txdone",)):
            yield RESCHEDULE
        yield ("isend", dst_node, words)
        while not (yield ("txdone",)):
            yield RESCHEDULE

    def _frag_recv_doubles(self, src_rank: int, n_values: int) -> "Program":
        """Take the next ``n_values`` doubles of the stream from
        ``src_rank``, in its per-source turn: concurrently posted receives
        from one peer complete in posting order (the stream is a single
        in-order front; skipping would hand request B request A's data)."""
        src_node = self.ctx.node_of(src_rank)
        return self.engine.in_turn(("rx", src_node),
                                   self._rx_poll(src_node, 2 * n_values))

    def _rx_poll(self, src_node: int, n_words: int) -> "Program":
        """Poll the stream from ``src_node`` until ``n_words`` are there;
        the doubles they hold."""
        while True:
            words = yield ("trecv", src_node, n_words)
            if words is not None:
                return unpack_doubles(words)
            yield RESCHEDULE


class EmpiCollectives(Communicator):
    """The message-passing backend: collectives over TIE streams and tokens.

    The front (:class:`~repro.empi.collectives.Communicator`) accepts
    each call and :func:`~repro.empi.schedules.plan` chooses its plan;
    this class executes it (:meth:`_collective`, over the flavour each
    piece's path names).  Point-to-point, barriers, fragments and the
    critical-path notes are the rank's :class:`Empi` transport.
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
        self.n_workers = ctx.n_workers
        self.comm_name = "empi"
        if ctx.attribution:
            self._span = ctx.empi._cp_span

    def barrier(self) -> "Program":
        return self._phase("barrier", self.empi.barrier())

    def send(self, dst_rank: int, values: list[float]) -> "Program":
        """Blocking point-to-point send of doubles (MPI_send)."""
        return self.empi.send_doubles(dst_rank, values)

    def recv(self, src_rank: int, n_values: int) -> "Program":
        """Blocking point-to-point receive of doubles (MPI_receive)."""
        return self.empi.recv_doubles(src_rank, n_values)

    def isend(self, dst_rank: int, values: list[float]) -> "Program":
        return self.empi.isend(dst_rank, values)

    def irecv(self, src_rank: int, n_values: int) -> "Program":
        return self.empi.irecv(src_rank, n_values)

    def _collective(self, collective: str, root: int | None,
                    values: list[float] | None, n_values: int,
                    op: ReduceOp | None, frag: bool) -> "Program":
        """Run this rank's part of the plan :func:`~repro.empi.schedules.plan`
        makes for one bcast, reduce or allreduce.

        This rank runs, in order, the pieces that list it, its position
        in ``ranks`` naming its transfers, over the flavour the piece's
        path names: :class:`_DmaFlavour` for ``DMA``, :class:`_TieFlavour`
        otherwise (``frag`` picks blocking ops or a request's fragments).
        The accumulator starts as ``values`` (zeros for a broadcast
        receiver) and carries across the pieces.  Each round pre-posts
        every combining receive where the flavour does
        (``expect_combine``: the DMA ``qreduce``), does its send — to all
        its receivers at once: on the DMA flavour one multicast
        descriptor, hop ``('snd', '*')`` for several — then completes
        the receives in listed order.  A receive from the rank itself
        (the linear reduce's root) folds its own contribution in with a
        ``compute``, no receive and no hop.  The flavours emit a ``rcv``
        hop as a receive completes, before the combine's ``compute``,
        and a ``snd`` hop after a send.
        """
        ctx = self.ctx
        algorithm = self.algorithm
        engine = ctx.dma_queue_depth >= 1
        pieces = plan(collective, algorithm, self.model, self.n_workers, root,
                      n_values, ctx.rank_groups, engine, ctx.dma_reduce_assist)
        if pieces and algorithm is HW and not engine:
            raise ProgramError(
                f"rank {ctx.rank}: the 'hw' collective algorithm "
                f"({'i' if frag else ''}{collective}) needs the DMA/TX-queue "
                f"engine; set dma_tx_queue_depth >= 1 on the SystemConfig"
            )
        me = ctx.rank
        acc = [0.0] * n_values if values is None else list(values)
        for ranks, schedule, path in pieces:
            if me not in ranks:
                continue
            if path is DMA:
                p2p: _Flavour = _DmaFlavour(
                    self.empi, frag, f"{collective}[{algorithm.value}]")
            else:
                p2p = _TieFlavour(self.empi, frag)
            prepost = p2p.prepost
            pos = ranks.index(me)
            for own in schedule.steps(pos):
                if prepost:
                    for src, dst, (start, stop), combine in own:
                        if dst == pos and src != pos and combine:
                            yield from p2p.expect_combine(
                                ranks[src], acc[start:stop], op)
                dsts = []
                for src, dst, segment, __ in own:
                    if src == pos and dst != pos:
                        dsts.append(ranks[dst])
                        start, stop = segment
                if dsts:
                    yield from p2p.send(dsts, acc[start:stop])
                for src, dst, segment, combine in own:
                    if dst != pos:
                        continue
                    start, stop = segment
                    if src == pos:
                        yield from fold(acc, segment, values[start:stop],
                                        combine, op, ctx.cost)
                    elif combine:
                        acc[start:stop] = yield from p2p.recv_combine(
                            ranks[src], acc[start:stop], op
                        )
                    else:
                        acc[start:stop] = yield from p2p.recv(ranks[src], stop - start)
        return acc

    def _scatter(self, root: int, chunks: list[list[float]] | None,
                 n_values: int) -> "Program":
        """The root streams ``chunks[r]`` to each other rank r in rank
        order; a zero-length scatter moves nothing."""
        ctx = self.ctx
        if ctx.rank == root:
            for rank in range(self.n_workers):
                if rank != root and n_values:
                    yield from ctx.send_doubles(rank, chunks[rank])
            return list(chunks[root])
        if not n_values:
            return []
        received = yield from ctx.recv_doubles(root, n_values)
        return received

    def _gather(self, root: int, values: list[float]) -> "Program":
        """Every other rank streams its vector to the root, which takes
        them in rank order; a zero-length gather moves nothing."""
        ctx = self.ctx
        if ctx.rank != root:
            if values:
                yield from ctx.send_doubles(root, values)
            return None
        gathered = []
        for rank in range(self.n_workers):
            if rank == root or not values:
                gathered.append(list(values))
            else:
                gathered.append((yield from ctx.recv_doubles(rank, len(values))))
        return gathered
