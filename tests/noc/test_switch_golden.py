"""Golden-equivalence property test for the optimized deflection router.

``_reference_route_node`` below is a deliberately straightforward
transcription of the original (pre-optimization) switch: free ports as a
set, unconditional sorting, productive directions through the topology
method.  The optimized ``route_node`` (bitmasks, skipped sorts, scratch
reuse) must produce identical outcomes flit-for-flit over randomized
configurations on both torus and mesh topologies — including the mutation
of per-flit deflection counters.

The fabric skips ``route_node`` altogether for a switch holding a single
unicast transit flit (the lone-flit bypass in ``NocFabric.step``); the
last tests check that shortcut against ``route_node`` for every (switch,
input link, destination) of a mesh, a torus and a chiplet package — hub
and gateway switches with their slow links included.
"""

from __future__ import annotations

import random

import pytest

from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.switch import RoutingOutcome, route_node
from repro.noc.topology import (
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
)


def _age_key(flit):
    """Oldest first, injection order breaking ties."""
    return (flit.injected_at, flit.uid)


def _reference_route_node(node, inputs, inject, topology, eject_capacity=1):
    """The seed implementation of route_node, kept verbatim-simple."""
    ports = topology.ports_of(node)

    arrived = [flit for flit in inputs if flit.dst == node]
    transit = [flit for flit in inputs if flit.dst != node]

    arrived.sort(key=_age_key)
    ejected = arrived[:eject_capacity]
    recirculating = arrived[eject_capacity:]
    eject_overflow = len(recirculating)

    outputs = [None, None, None, None]
    deflections = 0
    free = set(ports)

    contenders = sorted(transit + recirculating, key=_age_key)
    for flit in contenders:
        placed = False
        for direction in topology.productive_directions(node, flit.dst):
            if direction in free:
                outputs[direction] = flit
                free.discard(direction)
                placed = True
                break
        if not placed:
            for direction in ports:
                if direction in free:
                    outputs[direction] = flit
                    free.discard(direction)
                    placed = True
                    flit.deflections += 1
                    deflections += 1
                    break
        assert placed
    injected = False
    if inject is not None and free:
        for direction in topology.productive_directions(node, inject.dst):
            if direction in free:
                outputs[direction] = inject
                free.discard(direction)
                injected = True
                break
        if not injected:
            direction = min(free)
            outputs[direction] = inject
            free.discard(direction)
            injected = True
    return RoutingOutcome(ejected, outputs, injected, deflections,
                          eject_overflow)


def _random_flit(rng, n_nodes, uid):
    return Flit(
        dst=rng.randrange(n_nodes),
        src=rng.randrange(n_nodes),
        ptype=PacketType.MESSAGE,
        uid=uid,
        injected_at=rng.randrange(0, 50),
        deflections=rng.randrange(0, 3),
    )


def _clone(flit):
    return Flit(
        dst=flit.dst, src=flit.src, ptype=flit.ptype, subtype=flit.subtype,
        seq=flit.seq, burst=flit.burst, data=flit.data, uid=flit.uid,
        injected_at=flit.injected_at, hops=flit.hops,
        deflections=flit.deflections,
    )


def _assert_same_outcome(case, got, expected, flits, ref_flits):
    got_ej = [f.uid for f in got.ejected]
    exp_ej = [f.uid for f in expected.ejected]
    assert got_ej == exp_ej, f"{case}: ejected differ {got_ej} != {exp_ej}"
    got_out = [f.uid if f is not None else None for f in got.outputs]
    exp_out = [f.uid if f is not None else None for f in expected.outputs]
    assert got_out == exp_out, f"{case}: outputs differ {got_out} != {exp_out}"
    assert got.injected == expected.injected, f"{case}: injected differs"
    assert got.deflections == expected.deflections, f"{case}: deflections"
    assert got.eject_overflow == expected.eject_overflow, f"{case}: overflow"
    # The per-flit deflection counters must mutate identically.
    for mine, ref in zip(flits, ref_flits):
        assert mine.deflections == ref.deflections, (
            f"{case}: flit #{mine.uid} deflection counter diverged"
        )


def _run_equivalence(topology, rng, rounds, reuse_scratch):
    n_nodes = topology.n_nodes
    scratch = RoutingOutcome() if reuse_scratch else None
    uid = 0
    for case in range(rounds):
        node = rng.randrange(n_nodes)
        ports = topology.ports_of(node)
        n_inputs = rng.randrange(0, len(ports) + 1)
        flits = []
        for _ in range(n_inputs):
            flits.append(_random_flit(rng, n_nodes, uid))
            uid += 1
        inject = None
        if rng.random() < 0.7:
            inject = _random_flit(rng, n_nodes, uid)
            # The fabric strips self-addressed injections before routing.
            if inject.dst == node:
                inject.dst = (node + 1) % n_nodes
            uid += 1
        eject_capacity = rng.choice((1, 2))

        ref_flits = [_clone(f) for f in flits]
        ref_inject = _clone(inject) if inject is not None else None
        expected = _reference_route_node(
            node, ref_flits, ref_inject, topology, eject_capacity
        )
        got = route_node(node, flits, inject, topology, eject_capacity,
                         out=scratch)
        _assert_same_outcome(
            f"case {case} node {node}", got, expected,
            flits + ([inject] if inject else []),
            ref_flits + ([ref_inject] if ref_inject else []),
        )


def test_optimized_router_matches_reference_on_torus():
    rng = random.Random(0xC0FFEE)
    _run_equivalence(FoldedTorusTopology(4, 4), rng, rounds=2000,
                     reuse_scratch=False)


def test_optimized_router_matches_reference_on_torus_with_scratch_reuse():
    rng = random.Random(0xBEEF)
    _run_equivalence(FoldedTorusTopology(3, 3), rng, rounds=2000,
                     reuse_scratch=True)


def test_optimized_router_matches_reference_on_mesh():
    # Mesh corners/edges have fewer ports, exercising partial port masks.
    rng = random.Random(42)
    _run_equivalence(MeshTopology(4, 3), rng, rounds=2000,
                     reuse_scratch=True)


def test_scratch_reuse_is_equivalent_to_fresh_outcomes():
    topo = FoldedTorusTopology(4, 4)
    rng = random.Random(7)
    scratch = RoutingOutcome()
    uid = 0
    for _ in range(500):
        node = rng.randrange(topo.n_nodes)
        flits, clones = [], []
        for _ in range(rng.randrange(0, 5)):
            flit = _random_flit(rng, topo.n_nodes, uid)
            uid += 1
            flits.append(flit)
            clones.append(_clone(flit))
        fresh = route_node(node, clones, None, topo)
        reused = route_node(node, flits, None, topo, out=scratch)
        assert [f.uid for f in reused.ejected] == [f.uid for f in fresh.ejected]
        assert (
            [f.uid if f else None for f in reused.outputs]
            == [f.uid if f else None for f in fresh.outputs]
        )
        assert reused.deflections == fresh.deflections
        assert reused.eject_overflow == fresh.eject_overflow


# -- the fabric's lone-flit bypass against route_node -------------------------


def _step_fabric(topology, node, latched, cycle, inject=None, spatial=False):
    """One fabric step with ``latched`` (``{in_port: flit}``) in ``node``'s
    input registers, ``inject`` in its injection slot, nothing elsewhere."""
    fabric = NocFabric(topology)
    if spatial:
        fabric.enable_spatial()
    Simulator().register(fabric)
    for in_port, flit in latched.items():
        fabric.regs[node][in_port] = flit
    fabric._work.add(node)
    fabric._flit_count = len(latched)
    if inject is not None:
        assert fabric.ports[node].inject.try_inject(inject)
    fabric.step(cycle)
    return fabric


def _step_lone_flit(topology, node, in_port, flit, cycle, spatial=False):
    return _step_fabric(topology, node, {in_port: flit}, cycle, spatial=spatial)


@pytest.mark.parametrize("topology", [
    MeshTopology(4, 3),
    FoldedTorusTopology(3, 3),
    ChipletTopology(3, 2, 2, link_latency=4, link_serialization=2),
], ids=lambda topology: topology.kind)
def test_lone_flit_bypass_matches_route_node_everywhere(topology):
    cycle = 9
    for node in range(topology.n_nodes):
        for in_port in topology.ports_of(node):
            for dst in range(topology.n_nodes):
                flit = Flit(dst=dst, src=(dst + 1) % topology.n_nodes,
                            ptype=PacketType.MESSAGE, injected_at=3, hops=2)
                twin = _clone(flit)
                expected = route_node(node, [twin], None, topology)
                fabric = _step_lone_flit(topology, node, in_port, flit, cycle)
                case = f"node {node} in_port {in_port} dst {dst}"
                stats = fabric.stats
                assert fabric.regs[node][in_port] is None, case
                assert flit.deflections == twin.deflections == 0, case
                assert stats["deflections"] == expected.deflections == 0, case
                queue = fabric.ports[node].eject.queue
                if expected.ejected:
                    assert dst == node, case
                    assert queue.pop() is flit and queue.empty, case
                    assert flit.hops == 2, case
                    assert stats["flits_ejected"] == 1, case
                    assert stats["flit_hops"] == 2, case
                    assert fabric.latency.count == 1, case
                    assert fabric.latency.total == cycle - 3 + 1, case
                    assert fabric.flits_in_network == 0, case
                    assert not fabric.active, case
                    continue
                (direction,) = [
                    port for port, out in enumerate(expected.outputs)
                    if out is not None
                ]
                neighbor = topology.neighbor_table[node][direction]
                arrives_on = topology.reverse_port_table[node][direction]
                latency = topology.link_latency_table[node][direction]
                ser = topology.link_ser_table[node][direction]
                assert queue.empty and stats["flits_ejected"] == 0, case
                assert flit.hops == 3, case
                assert fabric.flits_in_network == 1, case
                if latency == 1 and ser == 1:
                    assert fabric.regs[neighbor][arrives_on] is flit, case
                    assert not fabric._delayed, case
                    assert fabric._work == {neighbor}, case
                else:
                    ((due, __, to_node, to_port, moved),) = fabric._delayed
                    assert (due, to_node, to_port) == (
                        cycle + latency, neighbor, arrives_on
                    ), case
                    assert moved is flit, case
                    wire = node * topology.max_ports + direction
                    assert fabric._wire_free[wire] == cycle + ser, case


def test_lone_flit_bypass_keeps_the_spatial_view():
    topology = MeshTopology(3, 3)
    flit = Flit(dst=8, src=0, ptype=PacketType.MESSAGE, injected_at=0)
    fabric = _step_lone_flit(topology, 4, topology.ports_of(4)[0], flit, 2,
                             spatial=True)
    (neighbor,) = fabric._work
    transits = fabric._spatial.link_transits[neighbor]
    assert sum(transits) == 1
    home = Flit(dst=4, src=0, ptype=PacketType.MESSAGE, injected_at=0)
    fabric = _step_lone_flit(topology, 4, topology.ports_of(4)[0], home, 2,
                             spatial=True)
    assert fabric._spatial.node_ejects[4] == 1


def test_multicast_or_contended_switches_still_take_the_router(monkeypatch):
    """The bypass is for one unicast transit flit and nothing else."""
    import repro.noc.network as network

    routed = []

    def spy(node, inputs, inject, *args, **kwargs):
        routed.append(node)
        return route_node(node, inputs, inject, *args, **kwargs)

    monkeypatch.setattr(network, "route_node", spy)
    topology = MeshTopology(3, 3)
    ports = topology.ports_of(4)

    lone = Flit(dst=8, src=0, ptype=PacketType.MESSAGE, injected_at=0)
    _step_lone_flit(topology, 4, ports[0], lone, 1)
    assert routed == []

    mcast = Flit(dst=-1, src=0, ptype=PacketType.MULTICAST, dst_mask=1 << 8,
                 injected_at=0)
    _step_lone_flit(topology, 4, ports[0], mcast, 1)
    assert routed == [4]

    def unicast():
        return Flit(dst=8, src=0, ptype=PacketType.MESSAGE, injected_at=0)

    _step_fabric(topology, 4, {ports[0]: unicast(), ports[1]: unicast()}, 1)
    assert routed == [4, 4]

    _step_fabric(topology, 4, {ports[0]: unicast()}, 1,
                 inject=Flit(dst=0, src=4, ptype=PacketType.MESSAGE))
    assert routed == [4, 4, 4]
