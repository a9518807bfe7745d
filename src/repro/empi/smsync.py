"""Shared-memory synchronization (the pure-SM baseline's toolbox).

Everything here goes through the MPMMU: lock/unlock packets for mutual
exclusion and uncached loads/stores for the barrier state.  Each spin poll
is a complete Req/Data round trip plus MPMMU service time, serialized
against every other core's traffic — the synchronization cost the paper's
hybrid approach eliminates (Section III attributes >= 56% of the 5x win to
exactly this).

Every protocol here is written once and takes its ``pause`` — the op
yielded between two polls of a shared word.  The default spins
(``("compute", poll_backoff)``, a blocking call); non-blocking requests
pass :data:`~repro.empi.requests.RESCHEDULE`, handing the core back to
the progress engine between MPMMU round trips.  That is the only
difference between a blocking op and its ``i*`` twin on this backend,
so delivered bits are equal by construction.

A collective call is accepted in one front
(:class:`~repro.empi.collectives.Communicator`) and planned by one rule,
:func:`repro.empi.schedules.plan`, for both programming models.
:class:`SharedMemoryCollectives` is the pure-SM executor.

* To add an **algorithm**: write one schedule function, one independent
  reference and one branch of :func:`~repro.empi.schedules.plan` (see
  :mod:`repro.empi.schedules`); ``SharedMemoryCollectives._collective``
  runs any plan as publish-slot / ``barrier_state.wait(pause)`` /
  read-slot rounds, with the pause the front's blocking or ``i*`` call
  implies.
* A new **flavour** here is just another pause op.
"""

from __future__ import annotations

import typing

from repro.empi.collectives import (
    HIER, HW,
    CollectiveAlgorithm,
    CommModel,
    Communicator,
    ReduceOp,
)
from repro.empi.requests import RESCHEDULE, ProgressEngine
from repro.empi.schedules import REPUBLISH, fold, plan
from repro.errors import ConfigError, ProgramError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pe.program import Program, ProgramContext


def _lines(n_bytes: int) -> int:
    """Round a byte count up to whole 16-byte cache lines."""
    return (n_bytes + 15) & ~15


class SharedMemoryLock:
    """A critical-section lock on one shared-memory word (MPMMU-backed)."""

    def __init__(self, ctx: "ProgramContext", addr: int) -> None:
        if not ctx.map.is_shared(addr):
            raise ProgramError(f"lock word {addr:#x} must live in the shared segment")
        self.ctx = ctx
        self.addr = addr

    def acquire(self) -> "Program":
        """Blocks (with hardware NACK/retry) until the lock is granted."""
        yield ("lock", self.addr)

    def release(self) -> "Program":
        yield ("unlock", self.addr)


class SharedMemoryBarrier:
    """Sense-reversing central barrier in shared memory.

    Layout: two words in the shared segment, placed on separate cache
    lines — ``counter`` (arrival count, mutated under the lock) and
    ``sense`` (the release flag workers spin on with uncached loads).

    Per the paper's programming model, the counter and flag are accessed
    uncacheably: polling a cached copy would never observe the release
    because there is no hardware coherence.
    """

    #: Byte span reserved by :meth:`carve`: two words on separate lines.
    FOOTPRINT = 32

    def __init__(
        self,
        ctx: "ProgramContext",
        base_addr: int,
        n_workers: int | None = None,
        poll_backoff: int = 24,
    ) -> None:
        if not ctx.map.is_shared(base_addr):
            raise ProgramError(
                f"barrier state {base_addr:#x} must live in the shared segment"
            )
        self.ctx = ctx
        self.counter_addr = base_addr
        self.sense_addr = base_addr + 16
        self.lock = SharedMemoryLock(ctx, base_addr + 4)
        self.n_workers = n_workers if n_workers is not None else ctx.n_workers
        self.poll_backoff = poll_backoff
        self._local_sense = 0
        self.waits = 0
        #: Shared bytes this barrier occupies (uniform with the
        #: hierarchical flavour, whose footprint depends on group count).
        self.footprint = self.FOOTPRINT

    def wait(self, pause: object = None) -> "Program":
        """Enter the barrier; returns when every worker has arrived.

        ``pause`` is yielded between release polls: by default the
        spinning backoff; a request fragment passes ``RESCHEDULE`` for
        the split-phase barrier, handing the core back to the progress
        engine (and through it to user compute) instead of burning
        backoff cycles.  Every poll is still a full MPMMU round trip —
        the cost the shared-memory model cannot shed.
        """
        self.waits += 1
        if self.n_workers == 1:
            return
        if pause is None:
            pause = ("compute", self.poll_backoff)
        my_sense = 1 - self._local_sense
        self._local_sense = my_sense
        yield from self.lock.acquire()
        count = yield ("uload", self.counter_addr)
        count += 1
        if count == self.n_workers:
            # Last arrival: reset the counter and flip the release flag.
            yield ("ustore", self.counter_addr, 0)
            yield ("ustore", self.sense_addr, my_sense)
            yield ("fence",)
            yield from self.lock.release()
            return
        yield ("ustore", self.counter_addr, count)
        yield ("fence",)
        yield from self.lock.release()
        while True:
            flag = yield ("uload", self.sense_addr)
            if flag == my_sense:
                return
            yield pause


class HierarchicalBarrier:
    """Topology-aware sense-reversing barrier for chiplet systems.

    The central barrier's single counter word is a contention funnel: at
    chiplet scale every arrival fights every other core for ONE lock
    word at the MPMMU, and every NACK/retry round trip crosses the slow
    inter-chiplet links.  This flavour splits the state per rank group
    (one group per chiplet, from ``ctx.rank_groups``): members arrive at
    their *group's* counter — contending only with on-chiplet peers —
    the group leaders meet at a small central barrier sized to the group
    count, and each leader then flips its group's release sense.

    All the state still physically lives at the MPMMU (there is one
    shared memory), so every access is still an uncached round trip —
    hierarchy shortens the *lock contention* and the *release fan-out*,
    not the wire.  Layout: one 32-byte counter/lock/sense block per
    group (same shape as :class:`SharedMemoryBarrier`), then the
    leaders' central barrier block.
    """

    def __init__(
        self,
        ctx: "ProgramContext",
        base_addr: int,
        groups: list[list[int]],
        poll_backoff: int = 24,
    ) -> None:
        if not groups:
            raise ProgramError("hierarchical barrier needs at least one group")
        if not ctx.map.is_shared(base_addr):
            raise ProgramError(
                f"barrier state {base_addr:#x} must live in the shared segment"
            )
        self.ctx = ctx
        self.groups = groups
        self.poll_backoff = poll_backoff
        self._group = next(g for g in groups if ctx.rank in g)
        self._is_leader = ctx.rank == self._group[0]
        index = groups.index(self._group)
        block = SharedMemoryBarrier.FOOTPRINT
        self.counter_addr = base_addr + index * block
        self.sense_addr = self.counter_addr + 16
        self.lock = SharedMemoryLock(ctx, self.counter_addr + 4)
        self._top = SharedMemoryBarrier(
            ctx,
            base_addr + len(groups) * block,
            n_workers=len(groups),
            poll_backoff=poll_backoff,
        )
        self.footprint = (len(groups) + 1) * block
        self.n_workers = sum(len(g) for g in groups)
        self._local_sense = 0
        self.waits = 0

    def wait(self, pause: object = None) -> "Program":
        """Enter the barrier; ``pause`` as in
        :meth:`SharedMemoryBarrier.wait`."""
        self.waits += 1
        if self.n_workers == 1:
            return
        if pause is None:
            pause = ("compute", self.poll_backoff)
        my_sense = 1 - self._local_sense
        self._local_sense = my_sense
        # Arrive at the group counter (on-chiplet contention only).
        yield from self.lock.acquire()
        count = yield ("uload", self.counter_addr)
        yield ("ustore", self.counter_addr, count + 1)
        yield ("fence",)
        yield from self.lock.release()
        if self._is_leader:
            # Collect the group, meet the other leaders, release.
            while True:
                count = yield ("uload", self.counter_addr)
                if count == len(self._group):
                    break
                yield pause
            if len(self.groups) > 1:
                yield from self._top.wait(pause)
            yield ("ustore", self.counter_addr, 0)
            yield ("ustore", self.sense_addr, my_sense)
            yield ("fence",)
            return
        while True:
            flag = yield ("uload", self.sense_addr)
            if flag == my_sense:
                return
            yield pause


class SharedMemoryCollectives(Communicator):
    """Collectives over the MPMMU: the pure-SM baseline's answer to eMPI.

    Layout (all in the shared segment, uncacheably accessed):

    * a :class:`SharedMemoryBarrier` at ``base_addr``;
    * one payload slot per rank, each ``max_values`` doubles rounded to
      whole cache lines, so no slot shares a line with another writer.

    Every payload word is an uncached MPMMU round trip and every phase
    boundary is a full shared-memory barrier — the serialization the
    paper's Section III charges against the pure-SM model, now measurable
    per collective.  The front (:class:`~repro.empi.collectives.Communicator`)
    accepts each call and :func:`~repro.empi.schedules.plan` chooses its
    plan; this class supplies the slot-arena executor and the
    scatter/gather bodies.  The schedules are the message-passing
    backend's, so a program's numerical result is identical under
    either backend.
    """

    model = CommModel.PURE_SM

    def __init__(
        self,
        ctx: "ProgramContext",
        base_addr: int | None = None,
        max_values: int = 64,
        algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
        n_workers: int | None = None,
        poll_backoff: int = 24,
        p2p_values: int = 0,
    ) -> None:
        self.algorithm = CollectiveAlgorithm.parse(algorithm)
        if self.algorithm is HW:
            raise ConfigError(
                "the 'hw' collective algorithm rides the TIE/DMA hardware; "
                "it is only available on the 'empi' model"
            )
        if self.algorithm is HIER:
            raise ConfigError(
                "the 'hier' collective algorithm schedules around the NoC "
                "topology; on the pure-SM model every word serializes "
                "through the MPMMU whatever the schedule, so it is only "
                "available on the 'empi' model"
            )
        if max_values < 1:
            raise ProgramError("collective arena needs at least one value slot")
        base = ctx.shared_base if base_addr is None else base_addr
        if not ctx.map.is_shared(base):
            raise ProgramError(
                f"collective arena {base:#x} must live in the shared segment"
            )
        self.ctx = ctx
        self.n_workers = n_workers if n_workers is not None else ctx.n_workers
        self.max_values = max_values
        #: Cycles between polls, for the barrier and every mailbox alike.
        self.poll_backoff = poll_backoff
        # Topology awareness: on a chiplet system (ctx.rank_groups set by
        # the builder) a full-communicator arena gets the hierarchical
        # barrier — per-chiplet arrival counters, leaders-only central
        # meet — instead of funnelling every arrival through one lock
        # word.  Flat topologies and sub-communicators keep the central
        # barrier, bit-and-cycle identical to before.
        groups = ctx.rank_groups
        if (
            groups
            and len(groups) > 1
            and self.n_workers == ctx.n_workers
        ):
            self.barrier_state: (
                SharedMemoryBarrier | HierarchicalBarrier
            ) = HierarchicalBarrier(
                ctx, base, groups, poll_backoff=poll_backoff
            )
        else:
            self.barrier_state = SharedMemoryBarrier(
                ctx, base, n_workers=self.n_workers, poll_backoff=poll_backoff
            )
        self.slot_stride = _lines(max_values * 8)
        self.slot_base = base + self.barrier_state.footprint
        self.comm_name = f"pure_sm@{self.slot_base:#x}"
        #: Total shared bytes this arena occupies (for callers placing
        #: their own data after it).
        self.footprint = (
            self.barrier_state.footprint + self.n_workers * self.slot_stride
        )
        #: Non-blocking machinery: a progress engine per rank, plus (when
        #: ``p2p_values`` > 0) an n x n mailbox matrix for isend/irecv.
        #: Every rank computes the same layout arithmetic, so channel
        #: addresses agree without coordination.
        self.engine = ProgressEngine()
        self.p2p_values = p2p_values
        self._channels: dict[tuple[int, int], SharedMemoryChannel] = {}
        if p2p_values > 0:
            self.channel_stride = SharedMemoryChannel.footprint_for(p2p_values)
            self.channel_base = base + self.footprint
            self.footprint += self.n_workers * self.n_workers * self.channel_stride

    def _slot(self, index: int) -> int:
        return self.slot_base + index * self.slot_stride

    def _channel(self, src: int, dst: int) -> "SharedMemoryChannel":
        """The (src -> dst) mailbox; built on demand at its fixed address."""
        if self.p2p_values < 1:
            raise ProgramError(
                "shared-memory isend/irecv need p2p_values > 0 at construction"
            )
        channel = self._channels.get((src, dst))
        if channel is None:
            addr = self.channel_base + (
                (src * self.n_workers + dst) * self.channel_stride
            )
            channel = SharedMemoryChannel(
                self.ctx, addr, self.p2p_values, poll_backoff=self.poll_backoff
            )
            self._channels[(src, dst)] = channel
        return channel

    # -- slot plumbing ------------------------------------------------------

    def _write_slot(self, index: int, values: list[float]) -> "Program":
        """Uncached-store a vector into a slot and drain it to memory."""
        if len(values) > self.max_values:
            raise ProgramError(
                f"vector of {len(values)} exceeds arena slots "
                f"({self.max_values} values)"
            )
        addr = self._slot(index)
        for offset, value in enumerate(values):
            yield from self.ctx.uncached_store_double(addr + 8 * offset, value)
        yield ("fence",)

    def _read_slot(self, index: int, n_values: int) -> "Program":
        addr = self._slot(index)
        values = []
        for offset in range(n_values):
            value = yield from self.ctx.uncached_load_double(addr + 8 * offset)
            values.append(value)
        return values

    # -- what the pure-SM backend supplies to the front ------------------------

    def barrier(self) -> "Program":
        self._check_engine_idle("barrier")
        yield from self.barrier_state.wait()

    def send(self, dst_rank: int, values: list[float]) -> "Program":
        """Blocking point-to-point send through the (src, dst) mailbox."""
        self._check_engine_idle("send")
        yield from self._channel(self.ctx.rank, dst_rank).send(values)

    def recv(self, src_rank: int, n_values: int) -> "Program":
        """Blocking point-to-point receive from the (src, dst) mailbox."""
        self._check_engine_idle("recv")
        result = yield from self._channel(src_rank, self.ctx.rank).recv(
            n_values
        )
        return result

    def _collective(self, collective: str, root: int | None,
                    values: list[float] | None, n_values: int,
                    op: ReduceOp | None, frag: bool) -> "Program":
        """Run this rank's part of the plan :func:`~repro.empi.schedules.plan`
        makes for one bcast, reduce or allreduce, over the arena.

        A position is a slot: the relative rank for the tree, the rank
        for linear and ring.  A send publishes the segment to the
        sender's slot; a receive reads the sender's slot back after a
        barrier, one from the rank itself (the linear reduce's root)
        reads nothing and folds its own contribution in with a
        ``compute``.  The accumulator starts as ``values`` (zeros for a
        broadcast receiver) and carries across the pieces.  Between
        barrier polls a blocking call spins and a request's fragment
        (``frag``) yields ``RESCHEDULE``.  A piece's path is one of two
        round shapes, which the pins hold:

        * ``REPUBLISH`` (the tree reduce): every rank publishes before
          the first round and after every combine, the root included; a
          round is barrier, reads; the piece closes with two barriers;
        * ``PUBLISH`` (linear, ring, and every broadcast): a round is
          publish once (if sending), barrier, reads, barrier, so a linear
          piece closes with one barrier.
        """
        ctx = self.ctx
        pieces = plan(collective, self.algorithm, self.model, self.n_workers,
                      root, n_values, None, False, False)
        barrier = self.barrier_state.wait
        pause = RESCHEDULE if frag else None
        cost = ctx.cost
        acc = [0.0] * n_values if values is None else list(values)
        for ranks, schedule, path in pieces:
            slot = ranks.index(ctx.rank)
            republish = path is REPUBLISH
            if republish:
                yield from self._write_slot(slot, acc)
            for own in schedule.steps(slot):
                if not republish:
                    for src, __, (start, stop), __ in own:
                        if src == slot:
                            yield from self._write_slot(slot, acc[start:stop])
                            break
                yield from barrier(pause)
                for src, dst, segment, combine in own:
                    start, stop = segment
                    if dst != slot:
                        continue
                    if src == slot:
                        other = values[start:stop]
                    else:
                        other = yield from self._read_slot(src, stop - start)
                    yield from fold(acc, segment, other, combine, op, cost)
                    if republish:
                        yield from self._write_slot(slot, acc)
                if not republish:
                    # A slot may only be republished once its reader is done.
                    yield from barrier(pause)
            if republish:
                yield from barrier(pause)
                yield from barrier(pause)
        return acc

    def _scatter(self, root: int, chunks: list[list[float]] | None,
                 n_values: int) -> "Program":
        """The root publishes chunk r to slot r; after a barrier each
        rank reads its own slot back."""
        ctx = self.ctx
        n = self.n_workers
        barrier = self.barrier_state.wait
        if ctx.rank == root:
            if n == 1:
                return list(chunks[root])
            for rank in range(n):
                if rank != root:
                    yield from self._write_slot(rank, chunks[rank])
            yield from barrier()
            result = list(chunks[root])
        else:
            yield from barrier()
            result = yield from self._read_slot(ctx.rank, n_values)
        yield from barrier()
        return result

    def _gather(self, root: int, values: list[float]) -> "Program":
        """Every rank publishes its slot; after a barrier the root reads
        them all back in rank order."""
        ctx = self.ctx
        n = self.n_workers
        barrier = self.barrier_state.wait
        if n == 1:
            return [list(values)]
        yield from self._write_slot(ctx.rank, values)
        yield from barrier()
        result = None
        if ctx.rank == root:
            gathered: list[list[float] | None] = [None] * n
            gathered[root] = list(values)
            for rank in range(n):
                if rank != root:
                    gathered[rank] = yield from self._read_slot(rank, len(values))
            result = gathered
        yield from barrier()
        return result

    # -- non-blocking operations (request/progress engine) ------------------
    #
    # The pure-SM answer to the eMPI request layer: the same Request /
    # wait / overlap surface (EngineCompletion), but every fragment step
    # is an uncached MPMMU round trip.  The core itself must move every
    # word, so there is no hardware to overlap with — exactly the
    # asymmetry the hybrid architecture exists to exploit, now
    # measurable per request.

    def isend(self, dst_rank: int, values: list[float]) -> "Program":
        # One mailbox per (src, dst) pair; sends to the same peer take
        # turns so back-to-back isends deliver in posting order.
        return self.engine.post(
            self.engine.in_turn(
                ("chan_tx", dst_rank),
                self._channel(self.ctx.rank, dst_rank).send(
                    values, RESCHEDULE
                ),
            ),
            f"isend->{dst_rank}",
        )

    def irecv(self, src_rank: int, n_values: int) -> "Program":
        return self.engine.post(
            self.engine.in_turn(
                ("chan_rx", src_rank),
                self._channel(src_rank, self.ctx.rank).recv(
                    n_values, RESCHEDULE
                ),
            ),
            f"irecv<-{src_rank}",
        )


class SharedMemoryChannel:
    """Single-slot producer/consumer mailbox in shared memory.

    One flag word plus a payload area, on separate cache lines.  The
    producer polls the flag EMPTY, uncached-stores the payload, fences
    (the paper's producer obligation: data must be globally visible
    before the flag flips), then raises the flag; the consumer polls
    FULL, reads the payload and lowers the flag.  Every poll is a
    complete MPMMU round trip — the streaming counterpart of the
    spin-barrier cost, and the SM baseline the TIE streams beat.
    """

    EMPTY = 0
    FULL = 1

    def __init__(
        self,
        ctx: "ProgramContext",
        base_addr: int,
        capacity_values: int,
        poll_backoff: int = 24,
    ) -> None:
        if not ctx.map.is_shared(base_addr):
            raise ProgramError(
                f"channel state {base_addr:#x} must live in the shared segment"
            )
        if capacity_values < 1:
            raise ProgramError("channel capacity must be >= 1 value")
        self.ctx = ctx
        self.flag_addr = base_addr
        self.data_addr = base_addr + 16
        self.capacity_values = capacity_values
        self.poll_backoff = poll_backoff
        self.footprint = self.footprint_for(capacity_values)

    @staticmethod
    def footprint_for(capacity_values: int) -> int:
        """Shared bytes one channel occupies (for layout planning)."""
        return 16 + _lines(capacity_values * 8)

    def _await_flag(self, wanted: int, pause: object) -> "Program":
        if pause is None:
            pause = ("compute", self.poll_backoff)
        while True:
            flag = yield ("uload", self.flag_addr)
            if flag == wanted:
                return
            yield pause

    def send(self, values: list[float], pause: object = None) -> "Program":
        """Deposit ``values``; ``pause`` is yielded between flag polls
        (default: spin; ``RESCHEDULE`` makes this the SM stand-in for an
        isend fragment)."""
        if len(values) > self.capacity_values:
            raise ProgramError(
                f"message of {len(values)} exceeds channel capacity "
                f"({self.capacity_values} values)"
            )
        yield from self._await_flag(self.EMPTY, pause)
        for offset, value in enumerate(values):
            yield from self.ctx.uncached_store_double(
                self.data_addr + 8 * offset, value
            )
        yield ("fence",)
        yield ("ustore", self.flag_addr, self.FULL)
        yield ("fence",)

    def recv(self, n_values: int, pause: object = None) -> "Program":
        yield from self._await_flag(self.FULL, pause)
        values = []
        for offset in range(n_values):
            value = yield from self.ctx.uncached_load_double(
                self.data_addr + 8 * offset
            )
            values.append(value)
        yield ("ustore", self.flag_addr, self.EMPTY)
        yield ("fence",)
        return values
