"""The per-tile DMA/TX-queue engine: descriptor queue + multicast stream.

Unit layer drives the engine directly against a bare TieInterface;
machine layer runs programs using the ``qmcast``/``mrecv``
operations on a full :class:`MedeaSystem` — including the equivalence
of multicast mode and the unicast-fallback mode.
"""

from __future__ import annotations

import pytest

from repro.dma.engine import DmaTxEngine, mask_members
from repro.errors import ProgramError, ProtocolError
from repro.kernel.trace import DMA_ACTIVATE, DMA_POST, DMA_RETIRE
from repro.noc.flit import MULTICAST_DST, Flit
from repro.pe.tie import GATED, REFUSED, TieInterface
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


def make_engine(depth=2, multicast=True, node_id=1, n_nodes=9):
    return DmaTxEngine(TieInterface(node_id), n_nodes=n_nodes, depth=depth,
                       multicast=multicast)


def drain(engine: DmaTxEngine) -> list[Flit]:
    """Pump the engine into an arbiter that takes every flit, until it
    is idle or gated; the flits offered."""
    offered: list[Flit] = []

    def take(flit: Flit) -> bool:
        offered.append(flit)
        return True

    engine.pump()
    while engine.busy and engine.send(take) != GATED:
        engine.pump()
    return offered


def peek(engine: DmaTxEngine) -> Flit | None:
    """The flit the engine offers this cycle — refused, so it stays
    current — or None when no flit may go."""
    offered: list[Flit] = []

    def refuse(flit: Flit) -> bool:
        offered.append(flit)
        return False

    return offered[0] if engine.send(refuse) == REFUSED else None


def test_mask_members_iterates_ascending():
    assert list(mask_members(0)) == []
    assert list(mask_members(0b101010)) == [1, 3, 5]


def test_queue_depth_bounds_posting():
    engine = make_engine(depth=2)
    assert engine.post_multicast(1 << 2, [1])
    assert engine.post_multicast(1 << 2, [2])
    assert len(engine.queue) == engine.depth
    assert not engine.post_multicast(1 << 2, [3])  # full: rejected, not raised
    assert engine.stats.as_dict()["queue_full_rejects"] == 1


def test_descriptor_validation():
    engine = make_engine()
    with pytest.raises(ProtocolError):
        engine.post_multicast(1 << 1, [1])  # this tile (a one-bit mask)
    with pytest.raises(ProtocolError):
        engine.post_multicast(1 << 9, [1])  # out of range (a one-bit mask)
    with pytest.raises(ProtocolError):
        engine.post_multicast(1 << 2, [])  # empty
    with pytest.raises(ProtocolError):
        engine.post_multicast((1 << 1) | (1 << 2), [1])  # includes this tile
    with pytest.raises(ProtocolError):
        engine.post_multicast(0, [1])
    with pytest.raises(ProtocolError):
        engine.post_multicast(1 << 12, [1])
    with pytest.raises(ProtocolError):
        DmaTxEngine(TieInterface(1), n_nodes=9, depth=0)


def test_multicast_group_reregistration_waits_for_quiescence():
    engine = make_engine(depth=4)
    group_a = (1 << 2) | (1 << 3)
    assert engine.post_multicast(group_a, [1])
    # A queued descriptor for the old group: the register cannot be
    # rewritten yet — refused like a full queue, not raised.
    assert not engine.post_multicast(1 << 2, [2])
    assert engine.stats.as_dict()["group_reregister_stalls"] == 1
    # The registered group stays re-usable meanwhile.
    assert engine.post_multicast(group_a, [2])
    # Drain both descriptors through the engine streamer.
    drain(engine)
    # Streamed but not yet credited: still not quiescent (2 slots sent,
    # zero credited would allow it only because 2 < CREDIT_WINDOW; force
    # the interesting case with a full window outstanding).
    engine.post_multicast(group_a, list(range(10)))
    drain(engine)
    assert not engine.post_multicast(1 << 2, [3])  # 12 slots, 0 credited
    engine.window.credited[2] = 8
    assert not engine.post_multicast(1 << 2, [3])  # member 3 still behind
    engine.window.credited[3] = 8
    # Quiescent now (the <CREDIT_WINDOW tail is software-ordered): the
    # register rewrites, and the shared sequence space continues.
    assert engine.post_multicast(1 << 2, [3])
    assert engine.group_mask == 1 << 2
    assert engine.stats.as_dict()["group_reregisters"] == 1
    # No new member joined (shrinking group): no sync handshake pending,
    # so the descriptor streams immediately.
    engine.pump()
    assert peek(engine).seq == 12 % 16


def test_multicast_group_growth_syncs_new_members():
    from repro.pe.tie import MCAST_SYNC_WORD

    engine = make_engine(depth=4)
    assert engine.post_multicast(1 << 2, list(range(5)))
    drain(engine)
    engine.window.credited[2] = 8  # member 2 quiescent
    grown = (1 << 2) | (1 << 5)
    assert engine.post_multicast(grown, [9])
    # The new member got a SYNC token (current slot = 5) on the reverse
    # path and is treated as credited up to the join point.
    assert list(engine.tie.pending_credits._items) == [
        (5, MCAST_SYNC_WORD | 5)
    ]
    assert engine.window.credited[5] == 5
    # The descriptor holds until the new member acks the sync.
    engine.pump()
    assert peek(engine) is None
    engine.tie.mcast_sync_acks.add(5)
    engine.pump()
    flit = peek(engine)
    assert flit is not None and flit.dst_mask == grown and flit.seq == 5


def test_multicast_head_streams_mask_flits_with_shared_slots():
    engine = make_engine(depth=4)
    mask = (1 << 2) | (1 << 5)
    engine.post_multicast(mask, [7, 8, 9])
    seen = drain(engine)
    assert not engine.busy
    assert [f.data for f in seen] == [7, 8, 9]
    assert all(f.dst == MULTICAST_DST and f.dst_mask == mask for f in seen)
    assert [f.seq for f in seen] == [0, 1, 2]
    # The next descriptor continues the shared slot space.
    engine.post_multicast(mask, [1])
    engine.pump()
    assert peek(engine).seq == 3


def test_fallback_expands_member_major_with_identical_slots():
    engine = make_engine(depth=4, multicast=False)
    mask = (1 << 2) | (1 << 5)
    engine.post_multicast(mask, [7, 8])
    seen = drain(engine)
    assert not engine.busy
    assert [(f.dst, f.seq, f.data) for f in seen] == [
        (2, 0, 7), (2, 1, 8), (5, 0, 7), (5, 1, 8),
    ]
    assert all(f.dst_mask == 1 << f.dst for f in seen)


def test_credit_gating_stalls_on_the_slowest_member():
    from repro.pe.tie import CREDIT_LIMIT

    engine = make_engine(depth=1)
    mask = (1 << 2) | (1 << 5)
    engine.post_multicast(mask, list(range(CREDIT_LIMIT + 4)))
    assert len(drain(engine)) == CREDIT_LIMIT  # slot 16 needs credits
    engine.window.credited[2] = 8
    assert peek(engine) is None  # member 5 still at zero
    engine.window.credited[5] = 8
    assert peek(engine) is not None
    assert engine.stats["credit_stall_cycles"] == 2
    assert engine.stats["flits_sent"] == CREDIT_LIMIT


# ---------------------------------------------------------------------------
# Machine level
# ---------------------------------------------------------------------------


def run_programs(factories, n_workers, **overrides):
    config = SystemConfig(n_workers=n_workers, **overrides)
    system = MedeaSystem(config)
    system.load_programs(factories)
    cycles = system.run(max_cycles=5_000_000)
    return system, cycles


def test_qmcast_full_queue_reports_false():
    """Long messages keep the engine streaming, so a depth-1 queue fills
    and qmcast (here a one-bit mask: a unicast engine send) reports False
    until the engine drains; retried posts still deliver everything in
    order."""
    observed = {}
    messages = [[base + i for i in range(20)] for base in (100, 200, 300)]

    def sender(ctx):
        rejections = 0
        for words in messages:
            while not (yield ("qmcast", 1 << ctx.node_of(1), words)):
                rejections += 1
        observed["rejections"] = rejections

    def receiver(ctx):
        got = []
        for words in messages:
            got.append((yield ("mrecv", ctx.node_of(0), len(words))))
        observed["got"] = got

    run_programs([sender, receiver], 2, dma_tx_queue_depth=1)
    assert observed["rejections"] > 0  # depth-1 queue must have filled
    assert observed["got"] == messages


@pytest.mark.parametrize("noc_multicast", [True, False])
def test_qmcast_delivers_to_every_member(noc_multicast):
    n_workers = 4
    received = {}

    def root(ctx):
        mask = 0
        for rank in range(1, n_workers):
            mask |= 1 << ctx.node_of(rank)
        ok = yield ("qmcast", mask, [11, 22, 33])
        assert ok
        yield ("compute", 10)

    def leaf(rank):
        def program(ctx):
            received[rank] = yield ("mrecv", ctx.node_of(0), 3)
        return program

    run_programs(
        [root] + [leaf(r) for r in range(1, n_workers)],
        n_workers, dma_tx_queue_depth=2, noc_multicast=noc_multicast,
    )
    for rank in range(1, n_workers):
        assert received[rank] == [11, 22, 33]


def test_trace_without_telemetry_logs_descriptor_lifecycles():
    """``SystemConfig(trace=True)`` is the one gate for hardware events:
    with telemetry off the engine still logs its descriptors, each post
    paired with its retire; with trace off too it logs nothing."""
    def root(ctx):
        for payload in ([1, 2], [3, 4, 5]):
            while not (yield ("qmcast", 1 << ctx.node_of(1), payload)):
                pass

    def leaf(ctx):
        assert (yield ("mrecv", ctx.node_of(0), 5)) == [1, 2, 3, 4, 5]

    system, __ = run_programs(
        [root, leaf], 2, dma_tx_queue_depth=2, trace=True
    )
    assert system.telemetry is None
    node = system.rank_to_node[0]
    posts = system.events.of_kind(DMA_POST)
    assert [(e.tile, e.key, e.payload) for e in posts] == [
        (node, 1, f"mcast {1 << (node + 1):#x} 2w"),
        (node, 2, f"mcast {1 << (node + 1):#x} 3w"),
    ]
    for kind in (DMA_ACTIVATE, DMA_RETIRE):
        closes = system.events.of_kind(kind)
        assert [(e.tile, e.key) for e in closes] == [(node, 1), (node, 2)]
        assert all(c.cycle >= p.cycle for p, c in zip(posts, closes))

    quiet, __ = run_programs([root, leaf], 2, dma_tx_queue_depth=2)
    assert quiet.events.of_kind(DMA_POST, DMA_ACTIVATE, DMA_RETIRE) == []


def test_multicast_and_fallback_deliver_identical_words():
    n_workers = 8
    payload = list(range(1, 41))  # 40 words: spans credit windows

    def run(noc_multicast):
        received = {}

        def root(ctx):
            mask = 0
            for rank in range(1, n_workers):
                mask |= 1 << ctx.node_of(rank)
            while not (yield ("qmcast", mask, payload)):
                pass

        def leaf(rank):
            def program(ctx):
                received[rank] = yield ("mrecv", ctx.node_of(0),
                                        len(payload))
            return program

        __, cycles = run_programs(
            [root] + [leaf(r) for r in range(1, n_workers)],
            n_workers, dma_tx_queue_depth=2, noc_multicast=noc_multicast,
        )
        return received, cycles

    with_mc, cycles_mc = run(True)
    fallback, cycles_uc = run(False)
    assert with_mc == fallback  # bit-identical delivery either mode
    assert cycles_mc < cycles_uc  # replication beats P-1 streams


def test_qmcast_coexists_with_blocking_and_nonblocking_sends():
    """The engine streams from its own send window and the TIE data
    stream is the core's alone: send/isend issued while a descriptor
    drains neither wait for the engine nor collide with it."""
    observed = {}

    def sender(ctx):
        dst = ctx.node_of(1)
        assert (yield ("qmcast", 1 << dst, list(range(30))))  # long: engine busy
        yield ("send", dst, [41, 42])
        assert (yield ("qmcast", 1 << dst, [51]))
        yield ("isend", dst, [61, 62])
        while not (yield ("txdone",)):
            pass

    def receiver(ctx):
        first = yield ("mrecv", ctx.node_of(0), 30)
        observed["blocking"] = yield ("recv", ctx.node_of(0), 2)
        observed["queued"] = yield ("mrecv", ctx.node_of(0), 1)
        observed["isend"] = yield ("recv", ctx.node_of(0), 2)
        observed["first"] = first

    run_programs([sender, receiver], 2, dma_tx_queue_depth=2)
    assert observed["first"] == list(range(30))
    assert observed["blocking"] == [41, 42]
    assert observed["queued"] == [51]
    assert observed["isend"] == [61, 62]


def test_bcast_to_subgroup_then_bcast_to_all():
    """Group re-registration end to end: the root multicasts to a
    subgroup, waits for consumption acks (the software-ordering rule),
    then rewrites the group register to all workers — new members join
    via the SYNC/SYNC_ACK handshake and receive from the shared
    sequence space mid-stream."""
    n_workers = 6
    received = {}

    def root(ctx):
        sub = (1 << ctx.node_of(1)) | (1 << ctx.node_of(2))
        while not (yield ("qmcast", sub, [1, 2, 3])):
            pass
        for __ in range(2):  # both subgroup members confirmed consumption
            yield ("recvreq",)
        full = 0
        for rank in range(1, n_workers):
            full |= 1 << ctx.node_of(rank)
        while not (yield ("qmcast", full, [7, 8])):
            pass

    def member(rank, in_subgroup):
        def program(ctx):
            got = []
            if in_subgroup:
                got.append((yield ("mrecv", ctx.node_of(0), 3)))
                yield ("sendreq", ctx.node_of(0), 0xAC)
            got.append((yield ("mrecv", ctx.node_of(0), 2)))
            received[rank] = got
        return program

    system, __ = run_programs(
        [root] + [member(r, r in (1, 2)) for r in range(1, n_workers)],
        n_workers, dma_tx_queue_depth=2,
    )
    assert received[1] == [[1, 2, 3], [7, 8]]
    assert received[2] == [[1, 2, 3], [7, 8]]
    for rank in range(3, n_workers):
        assert received[rank] == [[7, 8]]
    assert system.nodes[0].dma.stats.as_dict()["group_reregisters"] == 1


def test_qmcast_on_15w_mesh_under_strict_encoding():
    """Regression: 16 nodes need a 16-bit multicast mask, which the
    64-bit flit's 12 spare bits refused before the two-flit-header
    (widened mask word) extension — this configuration used to raise
    ProtocolError at injection under strict encoding."""
    n_workers = 15
    received = {}

    def root(ctx):
        mask = 0
        for rank in range(1, n_workers):
            mask |= 1 << ctx.node_of(rank)
        assert mask >= (1 << 12)  # genuinely beyond the 12 spare bits
        while not (yield ("qmcast", mask, [5, 6, 7])):
            pass

    def leaf(rank):
        def program(ctx):
            received[rank] = yield ("mrecv", ctx.node_of(0), 3)
        return program

    run_programs(
        [root] + [leaf(r) for r in range(1, n_workers)],
        n_workers, dma_tx_queue_depth=2, strict_encoding=True,
    )
    for rank in range(1, n_workers):
        assert received[rank] == [5, 6, 7]


def test_ops_without_engine_raise_program_error():
    def program(ctx):
        yield ("qmcast", 1 << ctx.node_of(1), [1])

    with pytest.raises(ProgramError, match="dma_tx_queue_depth"):
        run_programs([program, lambda ctx: iter(())], 2)


def test_the_unicast_descriptor_ops_are_gone():
    """One descriptor kind: qsend/qstat are no longer operations, so a
    program yielding one gets the interpreter's unknown-operation error
    (a unicast engine send is qmcast with a one-bit mask)."""
    def program(ctx):
        yield ("qsend", ctx.node_of(1), [1])

    with pytest.raises(ProgramError, match="unknown operation"):
        run_programs(
            [program, lambda ctx: iter(())], 2, dma_tx_queue_depth=2
        )
