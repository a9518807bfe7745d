"""Deflection-routing switch behaviour (pure routing function)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.noc.coords import EAST
from repro.noc.flit import Flit
from repro.noc.packet import PacketType
from repro.noc.switch import route_node
from repro.noc.topology import FoldedTorusTopology, MeshTopology

TOPO = FoldedTorusTopology(4, 4)


def make_flit(dst: int, src: int = 0, injected_at: int = 0) -> Flit:
    flit = Flit(dst=dst, src=src, ptype=PacketType.MESSAGE)
    flit.injected_at = injected_at
    return flit


def test_arrival_is_ejected():
    flit = make_flit(dst=5)
    outcome = route_node(5, [flit], None, TOPO)
    assert outcome.ejected == [flit]
    assert all(slot is None for slot in outcome.outputs)


def test_transit_takes_productive_port():
    node = TOPO.node_at(0, 0)
    dst = TOPO.node_at(2, 0)  # two hops east
    flit = make_flit(dst)
    outcome = route_node(node, [flit], None, TOPO)
    assert outcome.outputs[EAST] is flit
    assert outcome.deflections == 0


def test_contention_deflects_younger_flit():
    node = TOPO.node_at(0, 0)
    dst = TOPO.node_at(2, 0)
    old = make_flit(dst, injected_at=0)
    young = make_flit(dst, injected_at=5)
    outcome = route_node(node, [old, young], None, TOPO)
    assert outcome.outputs[EAST] is old
    assert outcome.deflections == 1
    assert young.deflections == 1
    assert young in outcome.outputs


def test_all_transit_flits_always_placed():
    node = TOPO.node_at(1, 1)
    dst = TOPO.node_at(3, 1)
    flits = [make_flit(dst, injected_at=i) for i in range(4)]
    outcome = route_node(node, flits, None, TOPO)
    placed = [f for f in outcome.outputs if f is not None]
    assert sorted(f.uid for f in placed) == sorted(f.uid for f in flits)


def test_ejection_capacity_recirculates_excess():
    node = 5
    first = make_flit(dst=node, injected_at=0)
    second = make_flit(dst=node, injected_at=1)
    outcome = route_node(node, [first, second], None, TOPO, eject_capacity=1)
    assert outcome.ejected == [first]  # oldest wins the ejection port
    assert outcome.eject_overflow == 1
    assert second in outcome.outputs  # hot-potato: it goes back out


def test_ejection_capacity_two_ejects_both():
    node = 5
    flits = [make_flit(dst=node, injected_at=i) for i in range(2)]
    outcome = route_node(node, flits, None, TOPO, eject_capacity=2)
    assert outcome.ejected == flits
    assert outcome.eject_overflow == 0


def test_injection_accepted_when_port_free():
    node = TOPO.node_at(0, 0)
    inject = make_flit(TOPO.node_at(1, 0))
    outcome = route_node(node, [], inject, TOPO)
    assert outcome.injected
    assert outcome.outputs[EAST] is inject


def test_injection_blocked_when_all_ports_taken():
    node = TOPO.node_at(1, 1)
    dst = TOPO.node_at(3, 3)
    transit = [make_flit(dst, injected_at=i) for i in range(4)]
    inject = make_flit(TOPO.node_at(2, 1), injected_at=9)
    outcome = route_node(node, transit, inject, TOPO)
    assert not outcome.injected
    assert inject not in outcome.outputs


def test_injection_deflected_to_free_port_if_needed():
    node = TOPO.node_at(1, 1)
    # Three transit flits all wanting to go east-ish occupy ports; the
    # injected flit wants EAST but must take whatever remains.
    dst_east = TOPO.node_at(3, 1)
    transit = [make_flit(dst_east, injected_at=i) for i in range(3)]
    inject = make_flit(dst_east, injected_at=9)
    outcome = route_node(node, transit, inject, TOPO)
    assert outcome.injected
    taken = [d for d, f in enumerate(outcome.outputs) if f is inject]
    assert len(taken) == 1


def test_recirculating_arrival_counts_as_deflection():
    node = 5
    keep = make_flit(dst=node, injected_at=0)
    excess = make_flit(dst=node, injected_at=1)
    outcome = route_node(node, [keep, excess], None, TOPO)
    # The recirculated flit had no productive port (it is *at* its
    # destination) so its placement is recorded as a deflection.
    assert outcome.deflections == 1


def test_oldest_first_priority_uses_uid_tiebreak():
    node = TOPO.node_at(0, 0)
    dst = TOPO.node_at(2, 0)
    a = make_flit(dst, injected_at=3)
    b = make_flit(dst, injected_at=3)
    outcome = route_node(node, [b, a], None, TOPO)
    winner = outcome.outputs[EAST]
    assert winner is (a if a.uid < b.uid else b)


def test_deterministic_given_same_inputs():
    node = TOPO.node_at(2, 2)
    def build():
        flits = [
            Flit(dst=TOPO.node_at(0, 2), src=1, ptype=PacketType.MESSAGE,
                 uid=100 + i)
            for i in range(3)
        ]
        for index, flit in enumerate(flits):
            flit.injected_at = index
        return flits

    first = route_node(node, build(), None, TOPO)
    second = route_node(node, build(), None, TOPO)
    first_map = [f.uid if f else None for f in first.outputs]
    second_map = [f.uid if f else None for f in second.outputs]
    assert first_map == second_map


def test_hops_not_modified_by_switch():
    # hop counting belongs to the fabric, not the routing function
    node = TOPO.node_at(0, 0)
    flit = make_flit(TOPO.node_at(1, 0))
    route_node(node, [flit], None, TOPO)
    assert flit.hops == 0


# -- the deflection invariant is a typed error, with or without ``python -O`` --


def test_deflection_invariant_breach_names_node_and_unicast_flit():
    # A mesh corner has two output ports: a third transit flit (a row no
    # fabric can produce) has nowhere to go.
    mesh = MeshTopology(3, 3)
    flits = [make_flit(dst=8, injected_at=age) for age in range(3)]
    with pytest.raises(
        SimulationError,
        match=rf"must always place a transit flit: .* node 0 .*#{flits[2].uid}\b",
    ):
        route_node(0, flits, None, mesh)


def test_deflection_invariant_breach_names_node_and_multicast_flit():
    mesh = MeshTopology(3, 3)
    flits = [
        Flit(dst=-1, src=1, ptype=PacketType.MULTICAST, dst_mask=1 << 8,
             injected_at=age)
        for age in range(3)
    ]
    with pytest.raises(
        SimulationError,
        match=rf"must always place a transit flit: .* node 0 "
              rf".*#{flits[2].uid} MULTICAST",
    ):
        route_node(0, flits, None, mesh)
