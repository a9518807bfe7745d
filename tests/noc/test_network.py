"""NoC fabric: end-to-end delivery, conservation, timing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PacketFormatError, ProtocolError, SimulationError
from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.coords import NORTH
from repro.noc.topology import FoldedTorusTopology, MeshTopology


class Collector(Component):
    """Drains an ejection queue, recording (cycle, flit)."""

    def __init__(self, fabric: NocFabric, node: int) -> None:
        super().__init__(f"collector[{node}]")
        self.port = fabric.ports_of(node)
        self.port.eject.owner = self
        self.received: list[tuple[int, Flit]] = []

    def step(self, cycle: int) -> None:
        queue = self.port.eject.queue
        while queue:
            self.received.append((cycle, queue.popleft()))
        self.sleep()


def build(width: int = 4, height: int = 4) -> tuple[Simulator, NocFabric]:
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(width, height))
    sim.register(fabric)
    return sim, fabric


def test_single_flit_delivery_and_latency():
    sim, fabric = build()
    collector = Collector(fabric, 5)
    sim.register(collector)
    flit = Flit(dst=5, src=0, ptype=PacketType.MESSAGE, data=42)
    assert fabric.ports_of(0).inject.try_inject(flit)
    sim.run(max_cycles=50)
    assert len(collector.received) == 1
    cycle, received = collector.received[0]
    assert received.data == 42
    hops = fabric.topology.hop_distance(0, 5)
    assert received.hops == hops
    # One cycle per hop plus the injection cycle.
    assert fabric.latency.max == hops + 1


def test_self_addressed_flit_bypasses_network():
    sim, fabric = build()
    collector = Collector(fabric, 3)
    sim.register(collector)
    flit = Flit(dst=3, src=3, ptype=PacketType.MESSAGE, data=7)
    fabric.ports_of(3).inject.try_inject(flit)
    sim.run(max_cycles=10)
    assert len(collector.received) == 1
    assert collector.received[0][1].hops == 0


def test_injection_port_busy_until_accepted():
    __, fabric = build()
    port = fabric.ports_of(0).inject
    assert port.try_inject(Flit(dst=1, src=0, ptype=PacketType.MESSAGE))
    assert port.busy
    assert not port.try_inject(Flit(dst=2, src=0, ptype=PacketType.MESSAGE))


def test_flit_endpoints_validated():
    __, fabric = build()
    with pytest.raises(ProtocolError):
        fabric.ports_of(0).inject.try_inject(
            Flit(dst=99, src=0, ptype=PacketType.MESSAGE)
        )


def test_strict_encoding_validates_wire_fit():
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(4, 4), strict_encoding=True)
    sim.register(fabric)
    good = Flit(dst=1, src=0, ptype=PacketType.MESSAGE, data=0xFFFF_FFFF)
    assert fabric.ports_of(0).inject.try_inject(good)
    with pytest.raises(PacketFormatError):
        # data wider than 32 bits cannot be encoded
        fabric.ports_of(2).inject.try_inject(
            Flit(dst=1, src=2, ptype=PacketType.MESSAGE, data=1 << 33)
        )


def test_fabric_sleeps_when_empty():
    sim, fabric = build()
    collector = Collector(fabric, 1)
    sim.register(collector)
    fabric.ports_of(0).inject.try_inject(
        Flit(dst=1, src=0, ptype=PacketType.MESSAGE)
    )
    sim.run(max_cycles=100)
    assert not fabric.active
    assert fabric.flits_in_network == 0


def test_all_to_one_delivery_conserves_flits():
    sim, fabric = build()
    collector = Collector(fabric, 0)
    sim.register(collector)
    sinks = [Collector(fabric, node) for node in range(1, 16)]
    for sink in sinks:
        sim.register(sink)
    sent = 0
    for node in range(1, 16):
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=0, src=node, ptype=PacketType.MESSAGE, data=node)
        )
        sent += 1
    sim.run(max_cycles=500)
    assert len(collector.received) == sent
    assert fabric.stats["flits_injected"] == sent
    assert fabric.stats["flits_ejected"] == sent
    assert fabric.flits_in_network == 0


def test_eject_width_one_serializes_arrivals():
    sim, fabric = build()
    collector = Collector(fabric, 0)
    sim.register(collector)
    for node in (1, 4, 12, 3):  # all one hop from node 0 on the torus
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=0, src=node, ptype=PacketType.MESSAGE)
        )
    sim.run(max_cycles=100)
    cycles = sorted(cycle for cycle, __ in collector.received)
    assert len(cycles) == 4
    assert len(set(cycles)) == 4  # one ejection per cycle


class Flood(Component):
    """Saturating source: injects every cycle while it can."""

    def __init__(self, fabric: NocFabric, node: int, n_nodes: int,
                 count: int, seed: int) -> None:
        super().__init__(f"flood[{node}]")
        self.fabric = fabric
        self.node = node
        self.port = fabric.ports_of(node)
        self.port.eject.owner = self
        self.rng = random.Random(seed)
        self.remaining = count
        self.n_nodes = n_nodes
        self.received = 0
        self.active = True

    def step(self, cycle: int) -> None:
        queue = self.port.eject.queue
        while queue:
            queue.popleft()
            self.received += 1
        if self.remaining <= 0:
            if self.fabric.flits_in_network == 0:
                self.sleep()
            return
        if not self.port.inject.busy:
            dst = self.rng.randrange(self.n_nodes - 1)
            if dst >= self.node:
                dst += 1
            self.port.inject.try_inject(
                Flit(dst=dst, src=self.node, ptype=PacketType.MESSAGE)
            )
            self.remaining -= 1


def test_saturating_load_delivers_everything():
    """Livelock check: oldest-first deflection drains a saturated torus."""
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(4, 4))
    sim.register(fabric)
    sources = [Flood(fabric, node, 16, count=50, seed=node) for node in range(16)]
    for source in sources:
        sim.register(source)
    sim.run(max_cycles=20_000)
    assert fabric.flits_in_network == 0
    assert fabric.stats["flits_injected"] == 16 * 50
    assert fabric.stats["flits_ejected"] == 16 * 50
    assert fabric.stats["deflections"] > 0  # the load actually contended


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    width=st.sampled_from([2, 3, 4]),
    height=st.sampled_from([2, 3, 4]),
)
def test_random_traffic_conservation_property(seed, width, height):
    """Every injected flit is ejected exactly once, any grid, any pattern."""
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(width, height))
    sim.register(fabric)
    n = width * height
    sources = [
        Flood(fabric, node, n, count=10, seed=seed * 31 + node)
        for node in range(n)
    ]
    for source in sources:
        sim.register(source)
    sim.run(max_cycles=50_000)
    assert fabric.stats["flits_injected"] == n * 10
    assert fabric.stats["flits_ejected"] == n * 10
    assert fabric.flits_in_network == 0


def test_mean_latency_reasonable_under_light_load():
    sim, fabric = build()
    sinks = [Collector(fabric, node) for node in range(16)]
    for sink in sinks:
        sim.register(sink)
    for node in range(16):
        dst = (node + 1) % 16
        fabric.ports_of(node).inject.try_inject(
            Flit(dst=dst, src=node, ptype=PacketType.MESSAGE)
        )
    sim.run(max_cycles=200)
    # Light load: latency should be close to hop distance + injection.
    assert fabric.latency.mean <= 6.0


def test_deflection_invariant_breach_in_the_fabric_names_cycle_node_and_flit():
    # A routing table pointing a mesh corner off the edge: no topology
    # builds one, so write it by hand.
    topology = MeshTopology(3, 3)
    assert topology.neighbor_table[0][NORTH] < 0
    topology.productive_table[0 * 9 + 8] = (NORTH,)
    sim = Simulator()
    fabric = NocFabric(topology)
    sim.register(fabric)
    flit = Flit(dst=8, src=0, ptype=PacketType.MESSAGE)
    assert fabric.ports_of(0).inject.try_inject(flit)
    with pytest.raises(
        SimulationError,
        match=rf"cycle 0: node 0 routed .*#{flit.uid}\b.* to a missing link",
    ):
        sim.run(max_cycles=5)


def test_the_tables_the_fabric_binds_once_are_the_topologys_own_objects():
    """``NocFabric.step`` unpacks its tables from one tuple built with the
    fabric; that is only right while they are the *same objects* everybody
    else edits in place."""
    from repro.noc import switch

    topology = MeshTopology(3, 3)
    sim = Simulator()
    fabric = sim.register(NocFabric(topology))
    plans = topology.mcast_plans
    for table in (topology.productive_table, plans, topology.neighbor_table,
                  topology.reverse_port_table, fabric.regs, fabric._work,
                  fabric._delayed, fabric.ports):
        assert sum(entry is table for entry in fabric._bound) == 1
    # The plan table empties itself at its limit — in place, so the dict
    # the bypass reads is still the one the router fills.
    plans.update(dict.fromkeys(range(-switch.PLAN_TABLE_LIMIT, 0), (0, -1, (), 0)))
    multicast = Flit(dst=-1, src=0, ptype=PacketType.MULTICAST, dst_mask=0b110,
                     injected_at=0)
    switch.route_node(0, [multicast], None, topology)
    assert topology.mcast_plans is plans and list(plans) == [0b110 * 9 + 0]
    # A routing entry rewritten *after* the build still bites.
    topology.productive_table[0 * 9 + 8] = (NORTH,)
    flit = Flit(dst=8, src=0, ptype=PacketType.MESSAGE)
    assert fabric.ports_of(0).inject.try_inject(flit)
    with pytest.raises(SimulationError, match="to a missing link"):
        sim.run(max_cycles=5)
