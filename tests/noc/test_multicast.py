"""Multicast replication in the deflection switch and fabric.

Three layers:

* ``route_node`` units — tree splitting, branch merging under
  contention, local ejection (including capacity deferral) and the
  port-reservation guard that keeps the deflection invariant;
* fabric end-to-end — an injected MULTICAST flit reaches every mask
  member exactly once and the running flit count returns to zero;
* the unicast-fallback representation (a MULTICAST flit with an
  ordinary ``dst``) rides the plain unicast path untouched.

The golden-equivalence harness (``test_switch_golden.py``) separately
guarantees that unicast routing is flit-for-flit unchanged.
"""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.noc.flit import MULTICAST_DST, Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.switch import route_node
from repro.noc.topology import FoldedTorusTopology


def mcast_flit(src, mask, uid, injected_at=0, data=0):
    return Flit(
        dst=MULTICAST_DST, src=src, ptype=PacketType.MULTICAST,
        data=data, dst_mask=mask, uid=uid, injected_at=injected_at,
    )


def unicast_flit(dst, src, uid, injected_at=0):
    return Flit(dst=dst, src=src, ptype=PacketType.MESSAGE, uid=uid,
                injected_at=injected_at)


@pytest.fixture
def topo():
    return FoldedTorusTopology(3, 3)


def out_masks(outcome):
    """dst_mask per output direction (None for idle ports)."""
    return [f.dst_mask if f is not None else None for f in outcome.outputs]


def test_multicast_splits_toward_distinct_branches(topo):
    # Node 4 (center): destinations 3 (west) and 5 (east) prefer
    # different ports, so the flit replicates into two copies.
    flit = mcast_flit(src=0, mask=(1 << 3) | (1 << 5), uid=1)
    outcome = route_node(4, [flit, None, None, None], None, topo)
    masks = [m for m in out_masks(outcome) if m is not None]
    assert sorted(masks) == [1 << 3, 1 << 5]
    assert outcome.flit_copies == 1  # one extra copy created
    assert not outcome.ejected


def test_multicast_merges_branch_when_port_taken(topo):
    # An older unicast flit holds the east port; the east branch merges
    # into the placed copy and will re-split later.
    east_dst = topo.neighbor(4, 1)  # whatever lies east of node 4
    blocker = unicast_flit(dst=east_dst, src=0, uid=1, injected_at=0)
    flit = mcast_flit(src=0, mask=(1 << 3) | (1 << east_dst), uid=2,
                      injected_at=5)
    outcome = route_node(4, [blocker, flit, None, None], None, topo)
    masks = [m for m in out_masks(outcome) if m is not None]
    # One copy carries the full remaining mask (merged), plus the blocker.
    assert (1 << 3) | (1 << east_dst) in masks
    assert outcome.flit_copies == 0


def test_multicast_local_delivery_and_forwarding(topo):
    # Mask includes the local node and one remote: a copy ejects here,
    # the flit forwards with the remote bit only.
    flit = mcast_flit(src=0, mask=(1 << 4) | (1 << 5), uid=1)
    outcome = route_node(4, [flit, None, None, None], None, topo)
    assert len(outcome.ejected) == 1
    assert outcome.ejected[0].dst == 4
    masks = [m for m in out_masks(outcome) if m is not None]
    assert masks == [1 << 5]
    assert outcome.flit_copies == 1


def test_multicast_last_destination_consumes_flit(topo):
    flit = mcast_flit(src=0, mask=1 << 4, uid=1)
    outcome = route_node(4, [flit, None, None, None], None, topo)
    assert outcome.ejected == [flit]
    assert flit.dst == 4 and flit.dst_mask == 0
    assert outcome.flit_copies == 0
    assert all(f is None for f in outcome.outputs)


def test_multicast_local_delivery_defers_when_eject_saturated(topo):
    # An older unicast arrival takes the single eject slot; the
    # multicast keeps its local bit and recirculates.
    arrival = unicast_flit(dst=4, src=0, uid=1, injected_at=0)
    flit = mcast_flit(src=0, mask=1 << 4, uid=2, injected_at=5)
    outcome = route_node(4, [arrival, flit, None, None], None, topo,
                         eject_capacity=1)
    assert outcome.ejected == [arrival]
    assert outcome.eject_overflow == 1
    masks = [m for m in out_masks(outcome) if m is not None]
    assert masks == [1 << 4]  # still owed to this node


def test_multicast_split_never_starves_a_younger_multicast(topo):
    # Two multicast flits, the older one could split 4 ways; it must
    # leave at least one port for the younger one.
    all_others = sum(1 << nd for nd in range(topo.n_nodes) if nd != 4) \
        & ~(1 << 0)
    older = mcast_flit(src=0, mask=all_others, uid=1, injected_at=0)
    younger = mcast_flit(src=0, mask=1 << 6, uid=2, injected_at=3)
    outcome = route_node(4, [older, younger, None, None], None, topo)
    placed = [f for f in outcome.outputs if f is not None]
    assert younger in placed
    # The older flit's copies still cover all of its destinations once.
    covered = 0
    for f in placed:
        if f is younger:
            continue
        assert covered & f.dst_mask == 0
        covered |= f.dst_mask
    assert covered == all_others


def test_multicast_injection_stalls_without_free_port(topo):
    inputs = [unicast_flit(dst=5, src=0, uid=i) for i in range(4)]
    inject = mcast_flit(src=4, mask=1 << 5, uid=9)
    outcome = route_node(4, inputs, inject, topo)
    assert not outcome.injected


def test_fabric_delivers_multicast_to_every_member_once():
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo)
    members = (1, 2, 5, 7, 8)
    mask = sum(1 << m for m in members)
    flit = mcast_flit(src=0, mask=mask, uid=1000, data=0xABC)
    assert fabric.ports_of(0).inject.try_inject(flit)
    for cycle in range(40):
        fabric.step(cycle)
    received = {
        node: list(fabric.ports_of(node).eject.queue)
        for node in range(topo.n_nodes)
    }
    for node, flits in received.items():
        if node in members:
            assert len(flits) == 1, f"node {node} got {flits}"
            assert flits[0].data == 0xABC
            assert flits[0].ptype == PacketType.MULTICAST
        else:
            assert flits == []
    assert fabric.flits_in_network == 0


def test_fabric_flit_count_balances_under_mixed_traffic():
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo)
    mask = (1 << 4) | (1 << 8) | (1 << 2)
    assert fabric.ports_of(0).inject.try_inject(
        mcast_flit(src=0, mask=mask, uid=2000)
    )
    assert fabric.ports_of(5).inject.try_inject(
        unicast_flit(dst=1, src=5, uid=2001)
    )
    for cycle in range(60):
        fabric.step(cycle)
    assert fabric.flits_in_network == 0
    total_ejected = sum(
        len(fabric.ports_of(node).eject.queue)
        for node in range(topo.n_nodes)
    )
    assert total_ejected == 4  # 3 multicast members + 1 unicast


def test_injection_replicas_carry_the_injection_cycle():
    """Copies split off at the injecting switch must inherit the stamp
    the fabric gives the original (age priority + latency baseline)."""
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo)
    # Node 4's neighbors split immediately into distinct branches.
    mask = sum(1 << topo.neighbor(4, d) for d in range(4))
    assert fabric.ports_of(4).inject.try_inject(
        mcast_flit(src=4, mask=mask, uid=3000)
    )
    for cycle in range(5, 30):  # injection happens at cycle 5
        fabric.step(cycle)
    assert fabric.flits_in_network == 0
    ejected = [
        flit
        for node in range(topo.n_nodes)
        for flit in fabric.ports_of(node).eject.queue
    ]
    assert len(ejected) == 4
    assert all(flit.injected_at == 5 for flit in ejected)
    # Latency bookkeeping stays sane: these are 1-2 hop deliveries (a
    # merged branch re-splits one hop out), not wall-clock cycle counts.
    assert fabric.latency.max <= 4


def test_singleton_dst_multicast_rides_the_unicast_path():
    # The fallback representation: ordinary dst, MULTICAST ptype.
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo)
    flit = Flit(dst=5, src=0, ptype=PacketType.MULTICAST, data=7,
                dst_mask=1 << 5)
    assert fabric.ports_of(0).inject.try_inject(flit)
    for cycle in range(20):
        fabric.step(cycle)
    queue = list(fabric.ports_of(5).eject.queue)
    assert len(queue) == 1 and queue[0] is flit
    assert fabric.flits_in_network == 0


def test_validate_rejects_bad_multicast_masks():
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo)
    with pytest.raises(ProtocolError):
        fabric.validate_flit(mcast_flit(src=0, mask=0, uid=1))
    with pytest.raises(ProtocolError):
        fabric.validate_flit(mcast_flit(src=0, mask=1 << 9, uid=2))
    with pytest.raises(ProtocolError):
        # Mask includes the source itself.
        fabric.validate_flit(mcast_flit(src=3, mask=1 << 3, uid=3))
    with pytest.raises(ProtocolError):
        # Negative dst on a non-multicast flit.
        fabric.validate_flit(
            Flit(dst=-1, src=0, ptype=PacketType.MESSAGE)
        )


def test_strict_encoding_accepts_mask_beyond_spare_bits():
    """Regression: a 16-node mask exceeds the 64-bit flit's 12 spare
    bits and used to raise ProtocolError under strict encoding (the
    unicast fallback was the only way); the widened-header codec now
    carries it losslessly."""
    topo = FoldedTorusTopology(4, 4)
    fabric = NocFabric(topo, strict_encoding=True)
    mask = ((1 << 16) - 1) & ~1  # every node but the source: 15 bits set
    flit = mcast_flit(src=0, mask=mask, uid=1)
    fabric.validate_flit(flit)  # previously: ProtocolError
    assert fabric.codec.mask_bits >= 16
    decoded = fabric.codec.decode(
        fabric.codec.encode(0, 0, int(PacketType.MULTICAST), 1, 0, 1, 0, 0,
                            mask=mask)
    )
    assert decoded["mask"] == mask


def test_strict_encoding_accepts_mask_in_spare_bits():
    topo = FoldedTorusTopology(3, 3)
    fabric = NocFabric(topo, strict_encoding=True)
    flit = mcast_flit(src=0, mask=(1 << 5) | (1 << 8), uid=1)
    fabric.validate_flit(flit)  # 9-node mask fits the 12 spare bits
    decoded = fabric.codec.decode(
        fabric.codec.encode(0, 0, int(PacketType.MULTICAST), 1, 0, 1, 0, 0,
                            mask=flit.dst_mask)
    )
    assert decoded["mask"] == flit.dst_mask


# -- the chiplet hub: exact split bound --------------------------------------


def test_multicast_splits_at_a_two_port_chiplet_hub():
    """Regression for the hierarchical-topology livelock: a multicast
    flit entering the two-port IO hub with destinations in *both*
    chiplets must split a copy toward each uplink in one pass.  Under
    the grids' spare-port slack the second branch could never satisfy
    ``free_count > reserve + 1`` at a degree-2 node, so the merged flit
    bounced back to the source chiplet forever."""
    from repro.noc.topology import ChipletTopology

    topo = ChipletTopology(2, 2, 2)  # hub node 0: ports 0 and 1 only
    # Destinations span chiplet 0 (nodes 2, 4) and chiplet 1 (nodes 5-8).
    mask = (1 << 2) | (1 << 4) | (1 << 5) | (1 << 8)
    flit = mcast_flit(src=1, mask=mask, uid=1)
    inputs = [None] * topo.max_ports
    inputs[0] = flit
    outcome = route_node(0, inputs, None, topo)
    masks = [m for m in out_masks(outcome) if m is not None]
    assert sorted(masks) == [(1 << 2) | (1 << 4), (1 << 5) | (1 << 8)]
    assert outcome.flit_copies == 1
    assert not outcome.ejected


def test_multicast_hub_split_still_reserves_younger_flits():
    """With a younger multicast flit also present at the hub, the older
    one must *not* split — both ports are needed to place both flits —
    and every destination bit survives on some output."""
    from repro.noc.topology import ChipletTopology

    topo = ChipletTopology(2, 2, 2)
    old = mcast_flit(src=1, mask=(1 << 2) | (1 << 6), uid=1, injected_at=0)
    young = mcast_flit(src=2, mask=(1 << 7), uid=2, injected_at=5)
    inputs = [None] * topo.max_ports
    inputs[0] = old
    inputs[1] = young
    outcome = route_node(0, inputs, None, topo)
    masks = [m for m in out_masks(outcome) if m is not None]
    assert len(masks) == 2  # one port each, no starvation
    combined = 0
    for m in masks:
        combined |= m
    assert combined == (1 << 2) | (1 << 6) | (1 << 7)
    assert outcome.flit_copies == 0
