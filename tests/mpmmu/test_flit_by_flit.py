"""A hand-driven MPMMU: its replies, flit by flit and cycle by cycle, and
its typed protocol errors.

No cores and no bridges: the test injects request and data flits at three
worker nodes' ports on scripted cycles and reads what the MPMMU sends
back.  The schedule covers the six transaction kinds, a lock held by
somebody else (NACK) and a write whose data flits arrive before the grant
and overflow the two-deep data FIFO (the rest wait in the ejection queue).
``REPLIES`` was recorded before the FSM's duplicated guards, the per-sleep
counter flushes and the keyword-built reply flits were removed from
``mpmmu/mpmmu.py``; the rewrite must reproduce it exactly.
"""

from __future__ import annotations

import pytest

from repro.cache.l1 import L1Cache
from repro.errors import ConfigError, ProtocolError
from repro.kernel.simulator import Simulator
from repro.kernel.state import component_state
from repro.mem.ddr import DdrModel
from repro.mpmmu.mpmmu import MpmmuNode, _MpmmuState, _WriteAssembly
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType, SubType
from repro.noc.topology import MeshTopology

ADDR, DATA = int(SubType.ADDR), int(SubType.DATA)
SR, SW, BR, BW, LOCK, UNLOCK = list(PacketType)[:6]

#: (cycle, source node, packet type, subtype, seq, burst, data word).
SCRIPT = (
    # A single write: request, grant, the data flit, final ACK.
    (0, 1, SW, ADDR, 0, 1, 0x100), (14, 1, SW, DATA, 0, 1, 0xAAAA),
    # Read it back while node 2 asks for a whole line (a cache hit behind
    # the miss that the first read takes).
    (30, 1, SR, ADDR, 0, 1, 0x100), (31, 2, BR, ADDR, 0, 1, 0x100),
    # A block write whose four data flits arrive out of order, *before*
    # the grant: two fit the data FIFO, two wait in the ejection queue.
    (80, 3, BW, ADDR, 0, 1, 0x200),
    (81, 3, BW, DATA, 2, 4, 22), (82, 3, BW, DATA, 0, 4, 20),
    (83, 3, BW, DATA, 3, 4, 23), (84, 3, BW, DATA, 1, 4, 21),
    (120, 3, BR, ADDR, 0, 1, 0x200),
    # Node 1 takes a lock, node 2 is refused it, node 1 gives it back and
    # node 2 gets it.
    (160, 1, LOCK, ADDR, 0, 1, 0x300), (161, 2, LOCK, ADDR, 0, 1, 0x300),
    (180, 1, UNLOCK, ADDR, 0, 1, 0x300), (190, 2, LOCK, ADDR, 0, 1, 0x300),
    (200, 2, UNLOCK, ADDR, 0, 1, 0x300),
)

#: (arrival cycle, node, type, subtype, seq, burst, data) of every reply.
REPLIES = (
    (7, 1, 'SINGLE_WRITE', 2, 0, 1, 0),
    (21, 1, 'SINGLE_WRITE', 2, 0, 1, 0),
    (67, 1, 'SINGLE_READ', 1, 0, 1, 43690),
    (73, 2, 'BLOCK_READ', 1, 0, 4, 43690),
    (74, 2, 'BLOCK_READ', 1, 1, 4, 0),
    (75, 2, 'BLOCK_READ', 1, 2, 4, 0),
    (76, 2, 'BLOCK_READ', 1, 3, 4, 0),
    (89, 3, 'BLOCK_WRITE', 2, 0, 1, 0),
    (102, 3, 'BLOCK_WRITE', 2, 0, 1, 0),
    (159, 3, 'BLOCK_READ', 1, 0, 4, 20),
    (160, 3, 'BLOCK_READ', 1, 1, 4, 21),
    (161, 3, 'BLOCK_READ', 1, 2, 4, 22),
    (162, 3, 'BLOCK_READ', 1, 3, 4, 23),
    (167, 1, 'LOCK', 2, 0, 1, 0),
    (171, 2, 'LOCK', 3, 0, 1, 0),
    (187, 1, 'UNLOCK', 2, 0, 1, 0),
    (197, 2, 'LOCK', 2, 0, 1, 0),
    (207, 2, 'UNLOCK', 2, 0, 1, 0),
)


def build() -> tuple[Simulator, NocFabric, MpmmuNode]:
    sim = Simulator()
    fabric = sim.register(NocFabric(MeshTopology(2, 2)))
    mpmmu = sim.register(MpmmuNode(
        fabric.ports_of(0), cache=L1Cache(1024, name="mpmmu.l1"),
        ddr=DdrModel(), n_workers=3, service_overhead=4, data_fifo_depth=2,
    ))
    return sim, fabric, mpmmu


def drive(script, cycles: int) -> tuple[list[tuple], MpmmuNode, int]:
    """The reply flits as ``(cycle, node, kind, subtype, seq, burst,
    data)``, the MPMMU, and the most flits its data FIFO held at the end
    of any cycle."""
    sim, fabric, mpmmu = build()
    pending = list(script)
    replies = []
    data_peak = 0
    for cycle in range(cycles):
        while pending and pending[0][0] == cycle:
            __, src, ptype, subtype, seq, burst, data = pending.pop(0)
            flit = Flit(dst=0, src=src, ptype=ptype, subtype=subtype,
                        seq=seq, burst=burst, data=data)
            assert fabric.ports_of(src).inject.try_inject(flit)
        sim.run(max_cycles=1)
        data_peak = max(data_peak, len(mpmmu.data_fifo))
        for node in (1, 2, 3):
            queue = fabric.ports_of(node).eject.queue
            while queue:
                flit = queue.popleft()
                assert (flit.src, flit.dst) == (0, node)
                replies.append((cycle, node, flit.ptype.name, flit.subtype,
                                flit.seq, flit.burst, flit.data))
    assert not pending
    return replies, mpmmu, data_peak


def test_replies_flit_for_flit_and_cycle_for_cycle():
    replies, mpmmu, data_peak = drive(SCRIPT, cycles=240)
    assert tuple(replies) == REPLIES
    assert mpmmu.idle and mpmmu.locks.held_count == 0
    assert data_peak == 2  # it did fill
    assert mpmmu.stats.as_dict() == {
        "served_single_write": 1, "served_single_read": 1,
        "served_block_read": 2, "served_block_write": 1, "served_lock": 3,
        "served_unlock": 2, "writes_committed": 2,
        "busy_cycles": 116,
        "requests_received": 10, "data_flits_received": 5,
        "reply_flits_sent": len(REPLIES),
    }


def test_no_mpmmu_step_of_a_write_through_jacobi_changes_nothing():
    """Every step the MPMMU is given moves something in its section of the
    machine state (``component_state`` of ``repro.kernel.state``):
    its state, a FIFO, a counter or its injection slot.  Waiting for
    write data with requests queued it used to stay awake, more than half
    its steps; a delivery wakes it in the arrival cycle, so it sleeps
    instead.  The run is the reference machine's write-through Jacobi."""
    from tests.system.test_reference_machine import RUNS

    idle_steps, queued_sleeps = [], []

    def watch(system):
        mpmmu = system.mpmmu
        step = mpmmu.step

        def watched_step(cycle):
            before = component_state(mpmmu)
            step(cycle)
            if component_state(mpmmu) == before:
                idle_steps.append(cycle)
            if (mpmmu._state is _MpmmuState.WAIT_DATA and mpmmu._req_items
                    and not mpmmu.active):
                queued_sleeps.append(cycle)

        mpmmu.step = watched_step

    assert RUNS["jacobi_wt"](None, watch)
    assert idle_steps == []
    assert queued_sleeps  # the sleep in WAIT_DATA with requests queued


# -- what used to be asserts -------------------------------------------------


def test_typed_error_write_assembled_short():
    assembly = _WriteAssembly(src=3, addr=0x40, kind=BW, expected=4)
    assembly.insert(Flit(dst=0, src=3, ptype=BW, subtype=DATA, seq=1, data=7))
    with pytest.raises(
        ProtocolError,
        match=r"mpmmu: write assembled with 1 of 4 words \(granted to node 3",
    ):
        assembly.words()


def test_typed_error_out_fifo_cannot_hold_a_block_reply():
    """A reply FIFO shallower than a line's word count used to pass the
    build and die mid-run (``FifoFullError: mpmmu.out: push on full FIFO
    (cap=3)``).  The depth is no longer a ``SystemConfig`` field either,
    so this constructor is the only way left to ask for one."""
    fabric = NocFabric(MeshTopology(2, 2))

    def build_with(depth: int) -> MpmmuNode:
        return MpmmuNode(
            fabric.ports_of(0), cache=L1Cache(1024, name="mpmmu.l1"),
            ddr=DdrModel(), n_workers=3, out_fifo_depth=depth,
        )

    for depth in (1, 2, 3):
        with pytest.raises(
            ConfigError,
            match=rf"mpmmu: out_fifo_depth {depth} cannot hold one block "
                  rf"reply \(4 flits\)",
        ):
            build_with(depth)
    assert build_with(4).out_fifo.capacity == 4


def test_typed_error_data_flit_with_no_write_granted():
    sim, fabric, mpmmu = build()
    stray = Flit(dst=0, src=2, ptype=SW, subtype=DATA, data=9)
    mpmmu.data_fifo.push(stray)
    mpmmu._state = _MpmmuState.WAIT_DATA  # no request ever set one up
    with pytest.raises(
        ProtocolError,
        match=rf"mpmmu: cycle 5: data flit .*#{stray.uid}\b.* with no write "
              rf"granted",
    ):
        mpmmu.step(5)


def test_typed_error_injection_port_free_but_rejecting():
    class StuckPort:
        pending = None

        def try_inject(self, flit: Flit) -> bool:
            return False

    sim, fabric, mpmmu = build()
    reply = Flit(dst=1, src=0, ptype=LOCK, subtype=int(SubType.ACK))
    mpmmu.out_fifo.push(reply)
    mpmmu.ports.inject = StuckPort()
    with pytest.raises(
        ProtocolError,
        match=rf"mpmmu: cycle 7: injection port reported free but rejected "
              rf".*#{reply.uid}\b",
    ):
        mpmmu.step(7)
