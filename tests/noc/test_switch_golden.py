"""Golden-equivalence property tests for the optimized deflection router.

``_reference_route_mixed`` below is the one reference router — the
reference machine's (``tests/reference_machine.py``).  Its unicast half is
a deliberately straightforward transcription of the original
(pre-optimization) switch: free ports as a set, unconditional sorting.
The optimized ``route_node`` (bitmasks, skipped sorts, scratch reuse) must
produce identical outcomes flit-for-flit over randomized unicast rows on
both torus and mesh topologies — including the mutation of per-flit
deflection counters.  Its multicast half, ``_reference_route_multicast``
and ``_reference_place_multicast``, is the router's multicast functions as
they stood before branch plans became a table, and drawn rows of mixed
unicast and multicast flits — under fault port masks and rerouted tables
too — must come out of ``route_node`` exactly as they come out of those.

The fabric skips ``route_node`` altogether for a switch with nothing to
arbitrate (the uncontended-switch bypass in ``NocFabric.step``), and the
whole general step for a network that holds one flit (the lone-flit path,
``NocFabric._step_lone``); the last tests check both shortcuts against
``route_node`` for every (switch, input link or injection slot,
destination) of a mesh, a torus and a chiplet package — hub and gateway
switches with their slow links included — say which of the two ran, and
check that everything else still reaches the general step and the router.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from functools import partial

import pytest

from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultPlan
from repro.kernel.simulator import Simulator
from repro.kernel.state import component_state, plain
from repro.kernel.trace import FAULT
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType, SubType
from repro.noc.switch import RoutingOutcome, route_node
from repro.noc.topology import (
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
    Topology,
)


def _age_key(flit):
    """Oldest first, injection order breaking ties."""
    return (flit.injected_at, flit.uid)


def _random_flit(rng, n_nodes, uid):
    return Flit(
        dst=rng.randrange(n_nodes),
        src=rng.randrange(n_nodes),
        ptype=PacketType.MESSAGE,
        uid=uid,
        injected_at=rng.randrange(0, 50),
        deflections=rng.randrange(0, 3),
    )


#: A flit's twin, uid and all.
_clone = dataclasses.replace


def test_optimized_router_matches_reference_on_torus():
    _run_mixed_equivalence(FoldedTorusTopology(4, 4), random.Random(0xC0FFEE),
                           rounds=2000, multicast=0.0)


def test_optimized_router_matches_reference_on_torus_with_scratch_reuse():
    _run_mixed_equivalence(FoldedTorusTopology(3, 3), random.Random(0xBEEF),
                           rounds=2000, multicast=0.0)


def test_optimized_router_matches_reference_on_mesh():
    # Mesh corners/edges have fewer ports, exercising partial port masks.
    _run_mixed_equivalence(MeshTopology(4, 3), random.Random(42),
                           rounds=2000, multicast=0.0)


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


# -- the multicast router against the bodies it replaced ----------------------
#
# ``_reference_copy_flit`` / ``_reference_route_multicast`` /
# ``_reference_place_multicast`` are the router's multicast functions as
# they stood before branch plans became a table (the mask is re-partitioned
# for every flit, into a fresh list), moved here unchanged but for their
# names.  ``_reference_route_mixed`` puts the verbatim-simple unicast form
# around them, with the fault layer's port mask and rerouted table.

def _reference_copy_flit(flit: Flit, dst: int, dst_mask: int) -> Flit:
    """A replica of ``flit`` (fresh uid, same age/protocol fields)."""
    return Flit(
        dst=dst,
        src=flit.src,
        ptype=flit.ptype,
        subtype=flit.subtype,
        seq=flit.seq,
        burst=flit.burst,
        data=flit.data,
        dst_mask=dst_mask,
        crc=flit.crc,
        injected_at=flit.injected_at,
        hops=flit.hops,
        deflections=flit.deflections,
    )


def _reference_route_multicast(
    node: int,
    mcast: list[Flit],
    free_mask: int,
    eject_budget: int,
    topology: Topology,
    out: RoutingOutcome,
    spill: bool = False,
    productive: list[tuple[int, ...]] | None = None,
) -> int:
    """Place every transit MULTICAST flit; returns the updated free mask.

    Multicast flits have the lowest transit priority (unicast contenders
    were placed first), are processed oldest first among themselves, and
    each is guaranteed one output port by the deflection invariant; extra
    branch splits only consume ports that no younger multicast flit still
    needs (``reserve``).
    """
    if len(mcast) > 1:
        mcast.sort(key=_age_key)
    for index, flit in enumerate(mcast):
        reserve = len(mcast) - index - 1
        if flit.dst_mask & (1 << node):
            if eject_budget > 0:
                eject_budget -= 1
                remaining = flit.dst_mask & ~(1 << node)
                if remaining == 0:
                    # Last destination: the flit itself leaves the network.
                    flit.dst = node
                    flit.dst_mask = 0
                    out.ejected.append(flit)
                    continue
                copy = _reference_copy_flit(flit, dst=node, dst_mask=1 << node)
                out.flit_copies += 1
                out.ejected.append(copy)
                flit.dst_mask = remaining
            else:
                # Ejection port saturated: keep the local bit set so the
                # flit recirculates and retries — the hot-potato answer.
                out.eject_overflow += 1
        free_mask, placed = _reference_place_multicast(
            node, flit, free_mask, reserve, topology, out, must_place=True,
            spill=spill, productive=productive,
        )
        assert placed, "multicast transit flit must always find a port"
    return free_mask


def _reference_place_multicast(
    node: int,
    flit: Flit,
    free_mask: int,
    reserve: int,
    topology: Topology,
    out: RoutingOutcome,
    must_place: bool,
    spill: bool = False,
    productive: list[tuple[int, ...]] | None = None,
) -> tuple[int, bool]:
    """Replicate one multicast flit toward its tree branches.

    Partitions the flit's remaining mask by each destination's preferred
    productive direction, places one copy per branch whose port is free
    (keeping ``reserve`` ports for later flits), merges unplaceable
    branches into the first placed copy, and deflects the whole flit when
    no branch port is free.  Returns ``(free_mask, placed)``.
    """
    if productive is None:
        productive = topology.productive_table
    base = node * topology.n_nodes
    local_bit = (1 << node) & flit.dst_mask  # deferred local delivery
    groups = [0] * len(out.outputs)
    m = flit.dst_mask & ~local_bit
    while m:
        bit = m & -m
        m ^= bit
        dirs = productive[base + (bit.bit_length() - 1)]
        if dirs:
            groups[dirs[0]] |= bit
        else:
            # Unreachable under a fault-rerouted table (partitioned
            # network): keep the bit on the flit; it rides along until
            # the watchdog reports the partition.
            local_bit |= bit
    outputs = out.outputs
    free_count = free_mask.bit_count()
    first_copy: Flit | None = None
    deferred = local_bit
    # An extra branch copy may take a port only while the ports left
    # afterwards cover every younger multicast flit's guaranteed placement
    # plus the topology's split slack (grids keep one spare port for local
    # injection; a chiplet hub needs the exact bound — see
    # ``Topology.mcast_split_slack``).
    needed = reserve + topology.mcast_split_slack
    for direction in range(len(groups)):
        branch = groups[direction]
        if not branch:
            continue
        bit = 1 << direction
        if free_mask & bit and (first_copy is None or free_count > needed):
            if first_copy is None:
                flit.dst_mask = branch
                outputs[direction] = flit
                first_copy = flit
            else:
                copy = _reference_copy_flit(flit, dst=flit.dst, dst_mask=branch)
                out.flit_copies += 1
                outputs[direction] = copy
            free_mask ^= bit
            free_count -= 1
        else:
            deferred |= branch
    if first_copy is not None:
        if deferred:
            first_copy.dst_mask |= deferred
        return free_mask, True
    # No branch port was free: send the whole flit out any free port
    # (deterministic scan order), mask intact.  For transit flits this
    # is a deflection and is counted as one; an injection taking a
    # non-productive first hop is not (matching the unicast rule).
    for direction in topology.ports_table[node]:
        bit = 1 << direction
        if free_mask & bit:
            flit.dst_mask = deferred
            outputs[direction] = flit
            if must_place:
                flit.deflections += 1
                out.deflections += 1
            return free_mask ^ bit, True
    if must_place and spill:
        # Same fault-mask activation transient as the unicast spill path:
        # drain across a masked-but-present wire rather than drop.
        for direction in topology.ports_table[node]:
            if outputs[direction] is None:
                flit.dst_mask = deferred
                outputs[direction] = flit
                flit.deflections += 1
                out.deflections += 1
                return free_mask, True
    assert not must_place, "deflection invariant violated for multicast flit"
    return free_mask, False


def _reference_route_mixed(node, inputs, inject, topology, eject_capacity,
                           port_mask=-1, productive=None):
    if productive is None:
        productive = topology.productive_table
    base = node * topology.n_nodes
    ports = topology.ports_of(node)
    out = RoutingOutcome(n_ports=topology.max_ports)
    unicast = [flit for flit in inputs if flit.dst >= 0]
    mcast = [flit for flit in inputs if flit.dst < 0]

    arrived = sorted((f for f in unicast if f.dst == node), key=_age_key)
    out.ejected.extend(arrived[:eject_capacity])
    recirculating = arrived[eject_capacity:]
    out.eject_overflow = len(recirculating)

    free = set(ports) if port_mask < 0 else {
        port for port in ports if port_mask >> port & 1
    }
    transit = [flit for flit in unicast if flit.dst != node]
    for flit in sorted(transit + recirculating, key=_age_key):
        productive_free = [d for d in productive[base + flit.dst] if d in free]
        if productive_free:
            direction = productive_free[0]
        else:
            # Deflect; under a fault mask, spill onto a masked idle wire.
            spare = [d for d in ports if d in free] or [
                d for d in ports if port_mask >= 0 and out.outputs[d] is None
            ]
            direction = spare[0]
            flit.deflections += 1
            out.deflections += 1
        out.outputs[direction] = flit
        free.discard(direction)

    free_mask = sum(1 << direction for direction in free)
    if mcast:
        free_mask = _reference_route_multicast(
            node, mcast, free_mask, eject_capacity - len(out.ejected),
            topology, out, spill=port_mask >= 0, productive=productive,
        )
    if inject is not None and free_mask:
        if inject.dst < 0:
            out.injected = _reference_place_multicast(
                node, inject, free_mask, 0, topology, out, must_place=False,
                productive=productive,
            )[1]
            return out
        free = [d for d in range(topology.max_ports) if free_mask >> d & 1]
        productive_free = [d for d in productive[base + inject.dst] if d in free]
        out.outputs[(productive_free or free)[0]] = inject
        out.injected = True
    return out


def _draw_mask(rng, n_nodes, node, exclude):
    """1 ... n-1 destination bits, with or without ``node``'s own."""
    others = [n for n in range(n_nodes) if n not in (node, exclude)]
    members = rng.sample(others, rng.randrange(1, len(others) + 1))
    if rng.random() < 0.3:
        members = members[:-1] + [node]  # the local bit, possibly alone
    return sum(1 << member for member in members)


def _draw_flit(rng, topology, node, serial, multicast, mask_bits=None):
    """A transit flit at ``node``; ``data`` = ``serial`` identifies it and
    its copies across the two routers (uids are drawn per copy)."""
    n_nodes = topology.n_nodes
    src = rng.randrange(n_nodes)
    common = dict(src=src, data=serial, uid=serial,
                  injected_at=rng.randrange(0, 6),
                  deflections=rng.randrange(0, 3))
    if not multicast:
        return Flit(dst=rng.randrange(n_nodes), ptype=PacketType.MESSAGE,
                    **common)
    if mask_bits == 1:
        mask = 1 << rng.choice([n for n in range(n_nodes) if n != src])
    else:
        mask = _draw_mask(rng, n_nodes, node, src)
    return Flit(dst=-1, ptype=PacketType.MULTICAST, dst_mask=mask, **common)


def _fields(flit):
    if flit is None:
        return None
    return (flit.data, flit.dst, flit.dst_mask, flit.src, flit.injected_at,
            flit.hops, flit.deflections)


def _assert_same_mixed_outcome(case, got, expected, flits, ref_flits):
    assert [_fields(f) for f in got.outputs] == [
        _fields(f) for f in expected.outputs
    ], f"{case}: outputs differ"
    assert [_fields(f) for f in got.ejected] == [
        _fields(f) for f in expected.ejected
    ], f"{case}: ejected differ"
    for name in ("injected", "deflections", "eject_overflow", "flit_copies"):
        assert getattr(got, name) == getattr(expected, name), f"{case}: {name}"
    # Input flits are mutated in place (mask narrowing, deflection counts).
    assert [_fields(f) for f in flits] == [
        _fields(f) for f in ref_flits
    ], f"{case}: an input flit diverged"


def _run_mixed_equivalence(topology, rng, rounds, tables=None, multicast=0.6):
    """Drawn rows through ``route_node`` (its scratch outcome reused) and
    the reference; ``multicast`` is the share of multicast flits, and with
    0 no injection is one either.

    ``tables`` (a callable) yields ``(port_mask, productive, plans)`` per
    case: the fault layer's view.  Default: a random live-port subset in a
    quarter of the cases, the pristine table otherwise.
    """
    scratch = RoutingOutcome(n_ports=topology.max_ports)
    serial = 0
    for case in range(rounds):
        node = rng.randrange(topology.n_nodes)
        ports = topology.ports_of(node)
        flits = []
        for _ in range(rng.randrange(0, len(ports) + 1)):
            serial += 1
            flits.append(_draw_flit(rng, topology, node, serial,
                                    multicast=rng.random() < multicast,
                                    mask_bits=rng.choice((1, None))))
        inject = None
        kind = rng.choice(("none", "unicast", "one-bit", "many-bit")[
            :4 if multicast else 2
        ])
        if kind != "none":
            serial += 1
            inject = _draw_flit(rng, topology, node, serial,
                                multicast=kind != "unicast",
                                mask_bits=1 if kind == "one-bit" else None)
            inject.src = node
            inject.dst_mask &= ~(1 << node)
            if inject.dst == node or (inject.dst < 0 and not inject.dst_mask):
                inject = None  # the fabric never routes these
        if tables is not None:
            port_mask, productive, plans = tables(node)
        else:
            port_mask, productive, plans = -1, None, None
            if rng.random() < 0.25:
                port_mask = sum(1 << p for p in ports if rng.random() < 0.7)
        eject_capacity = rng.choice((1, 2))

        ref_flits = [_clone(flit) for flit in flits]
        ref_inject = _clone(inject) if inject is not None else None
        expected = _reference_route_mixed(
            node, ref_flits, ref_inject, topology, eject_capacity,
            port_mask, productive,
        )
        got = route_node(
            node, flits, inject, topology, eject_capacity, out=scratch,
            port_mask=port_mask, productive=productive,
            **({} if plans is None else {"plans": plans}),
        )
        _assert_same_mixed_outcome(
            f"{topology.kind} case {case} node {node} mask {port_mask}",
            got, expected,
            flits + ([inject] if inject else []),
            ref_flits + ([ref_inject] if ref_inject else []),
        )


_MIXED_TOPOLOGIES = [
    MeshTopology(4, 3),
    FoldedTorusTopology(3, 3),
    # Hub and gateways; the one family with mcast_split_slack 0.
    ChipletTopology(3, 2, 2, link_latency=4, link_serialization=2),
]


@pytest.mark.parametrize("topology", _MIXED_TOPOLOGIES,
                         ids=lambda topology: topology.kind)
def test_multicast_router_matches_reference_on_mixed_rows(topology):
    assert topology.mcast_split_slack == (topology.kind != "chiplet")
    _run_mixed_equivalence(topology, random.Random(0x5EED), rounds=3000)


@pytest.mark.parametrize("topology", _MIXED_TOPOLOGIES,
                         ids=lambda topology: topology.kind)
def test_branch_plans_do_not_leak_across_rerouted_tables(topology):
    """Two link kills in a row: the plans looked up after each one must
    come from *that* kill's table, and the pristine table's plans must
    survive untouched beside them."""
    rng = random.Random(0xDEAD)
    middle = topology.n_nodes // 2
    injector = FaultInjector(
        FaultPlan(dead_links=(
            (middle, topology.ports_of(middle)[0], 0),
            (1, topology.ports_of(1)[0], 10),
        )),
        topology,
    )

    def rerouted(at):
        return (injector.out_mask(at), injector.productive_override,
                injector.mcast_plans)

    _run_mixed_equivalence(topology, rng, rounds=600)
    injector.advance(0)
    _run_mixed_equivalence(topology, rng, rounds=1500, tables=rerouted)
    stale = injector.mcast_plans
    assert stale, "the rerouted table's plans were never filled"
    injector.advance(10)
    assert injector.mcast_plans is not stale and not injector.mcast_plans
    _run_mixed_equivalence(topology, rng, rounds=1500, tables=rerouted)
    _run_mixed_equivalence(topology, rng, rounds=600)


def test_branch_plan_table_is_bounded():
    from repro.noc import switch

    topology = MeshTopology(4, 4)
    rng = random.Random(1)
    for serial in range(3 * switch.PLAN_TABLE_LIMIT // 2):
        mask = rng.randrange(1, 1 << topology.n_nodes) & ~1
        flit = Flit(dst=-1, src=0, ptype=PacketType.MULTICAST,
                    dst_mask=mask or 2, injected_at=0)
        route_node(5, [flit], None, topology)
        assert len(topology.mcast_plans) <= switch.PLAN_TABLE_LIMIT


# -- the fabric's lone-flit bypass against route_node -------------------------


def _step_fabric(topology, node, latched, cycle, inject=None, spatial=False,
                 faults=None):
    """One fabric step with ``latched`` (``{in_port: flit}``) in ``node``'s
    input registers, ``inject`` in its injection slot, nothing elsewhere.
    ``faults`` is a plan for the fabric's :class:`FaultInjector`."""
    injector = None if faults is None else FaultInjector(faults, topology)
    fabric = NocFabric(topology, faults=injector)
    if spatial:
        fabric.enable_spatial()
    Simulator().register(fabric)
    for in_port, flit in latched.items():
        if injector is not None:
            injector.stamp(flit)  # as its injection port would have
        fabric.regs[node][in_port] = flit
    fabric._work.add(node)
    fabric._flit_count = len(latched)
    if inject is not None:
        assert fabric.ports[node].inject.try_inject(inject)
    fabric.step(cycle)
    return fabric


def _step_lone_flit(topology, node, in_port, flit, cycle, spatial=False):
    return _step_fabric(topology, node, {in_port: flit}, cycle, spatial=spatial)


def _assert_step_equals_router(case, topology, node, latched, inject,
                               faults=None, cycle=9):
    """One fabric step over ``node`` must leave exactly what ``route_node``
    says: the same flits ejected (in order), the same flit on the far end
    of every output port's link, the same counters."""
    flits = list(latched.values()) + ([inject] if inject is not None else [])
    original = {flit.uid: flit for flit in flits}
    hops_before = {flit.uid: flit.hops for flit in flits}
    twin_inject = _clone(inject) if inject is not None else None
    if twin_inject is not None and twin_inject.dst < 0:
        twin_inject.injected_at = cycle  # the fabric stamps these first
    expected = route_node(
        node, [_clone(flit) for flit in latched.values()], twin_inject,
        topology,
    )
    assert not expected.flit_copies, f"{case}: not a bypass candidate"
    fabric = _step_fabric(topology, node, latched, cycle, inject, faults=faults)
    stats = fabric.stats

    assert fabric.regs[node] == [None] * topology.max_ports, case
    queue = fabric.ports[node].eject.queue
    for twin in expected.ejected:
        flit = queue.popleft()
        assert flit is original[twin.uid], case
        assert (flit.dst, flit.dst_mask) == (twin.dst, twin.dst_mask), case
        assert flit.hops == hops_before[flit.uid], case
    assert not queue, case
    ejected_hops = sum(hops_before[twin.uid] for twin in expected.ejected)
    assert stats["flits_ejected"] == len(expected.ejected), case
    assert stats["flit_hops"] == ejected_hops, case
    assert fabric.latency.count == len(expected.ejected), case
    assert fabric.latency.total == sum(
        cycle - twin.injected_at + 1 for twin in expected.ejected
    ), case

    slot = fabric.ports[node].inject
    assert stats["flits_injected"] == slot.injected == expected.injected, case
    assert stats["injection_stalls"] == 0 and slot.pending is None, case
    if inject is not None:
        assert inject.injected_at == cycle, case
    assert stats["deflections"] == expected.deflections == 0, case
    assert stats["eject_overflows"] == expected.eject_overflow == 0, case

    forwarded = 0
    due_nodes = set()
    for direction, twin in enumerate(expected.outputs):
        if twin is None:
            continue
        forwarded += 1
        flit = original[twin.uid]
        assert (flit.dst, flit.dst_mask) == (twin.dst, twin.dst_mask), case
        assert flit.deflections == twin.deflections == 0, case
        assert flit.hops == hops_before[flit.uid] + 1, case
        neighbor = topology.neighbor_table[node][direction]
        arrives_on = topology.reverse_port_table[node][direction]
        latency = topology.link_latency_table[node][direction]
        ser = topology.link_ser_table[node][direction]
        if latency == 1 and ser == 1:
            assert fabric.regs[neighbor][arrives_on] is flit, case
            due_nodes.add(neighbor)
        else:
            ((due, __, to_node, to_port, moved),) = fabric._delayed
            assert (due, to_node, to_port) == (
                cycle + latency, neighbor, arrives_on
            ), case
            assert moved is flit, case
            wire = node * topology.max_ports + direction
            assert fabric._wire_free[wire] == cycle + ser, case
    assert forwarded <= 1, f"{case}: not a bypass candidate"
    assert fabric._work == due_nodes, case
    assert len(fabric._delayed) == forwarded - len(due_nodes), case
    assert fabric.flits_in_network == forwarded, case
    if not due_nodes:
        assert not fabric.active, case  # asleep until the next arrival


#: A fault plan whose port masks never activate (nothing killed or
#: stalled): its fabric must take the bypass like a fault-free one.
_MASKS_INACTIVE = FaultPlan(seed=1, drop_credits=((0, 1, 1),))


def _lone_path_takes(topology, node, flit) -> bool:
    """Whether the lone-flit path carries ``flit``, alone in the network
    at ``node``: home, or one single-cycle link from its next register."""
    dst = flit.dst if flit.dst >= 0 else flit.dst_mask.bit_length() - 1
    if dst == node:
        return True
    direction = topology.productive_table[node * topology.n_nodes + dst][0]
    return (topology.link_latency_table[node][direction],
            topology.link_ser_table[node][direction]) == (1, 1)


@pytest.mark.parametrize("topology", [
    MeshTopology(4, 3),
    FoldedTorusTopology(3, 3),
    ChipletTopology(3, 2, 2, link_latency=4, link_serialization=2),
], ids=lambda topology: topology.kind)
def test_lone_flit_bypass_matches_route_node_everywhere(
    topology, monkeypatch, lone_path
):
    """Every step the fabric does not hand to the router — a lone transit
    flit (unicast, or multicast with one destination), a lone injection of
    either kind, each also beside one flit ejecting here — for every
    (switch, input link, destination), fault-free and under a fault plan
    whose masks stay inactive.  A flit alone in the network takes the
    lone-flit path unless its link is a slow one, under that plan too;
    every other case is the general step's, through its
    uncontended-switch bypass."""
    import repro.noc.network as network

    routed = []

    def spy(node, *args, **kwargs):
        routed.append(node)
        return route_node(node, *args, **kwargs)

    monkeypatch.setattr(network, "route_node", spy)
    n_nodes = topology.n_nodes

    def unicast(dst, hops=2):
        return Flit(dst=dst, src=(dst + 1) % n_nodes,
                    ptype=PacketType.MESSAGE, injected_at=3, hops=hops)

    def one_bit(dst, hops=2):
        return Flit(dst=-1, src=(dst + 1) % n_nodes, dst_mask=1 << dst,
                    ptype=PacketType.MULTICAST, injected_at=3, hops=hops)

    def check(case, node, latched, inject, faults):
        flits = list(latched.values()) + ([inject] if inject else [])
        expected = []
        if len(flits) == 1:
            expected = [_lone_path_takes(topology, node, flits[0])]
        del lone_path.returned[:]
        _assert_step_equals_router(case, topology, node, latched, inject,
                                   faults)
        assert lone_path.returned == expected, case

    for node, faults in itertools.product(
        range(n_nodes), (None, _MASKS_INACTIVE)
    ):
        ports = topology.ports_of(node)
        for in_port in ports:
            for dst in range(n_nodes):
                case = f"node {node} in_port {in_port} dst {dst} {faults}"
                for make in (unicast, one_bit):
                    check(f"{case} lone {make.__name__}", node,
                          {in_port: make(dst)}, None, faults)
                if dst == node:
                    continue
                for make in (unicast, one_bit):
                    kind = make.__name__
                    if in_port == ports[0]:
                        check(f"{case} lone {kind} injection", node,
                              {}, make(dst, hops=0), faults)
                    check(f"{case} {kind} injection beside an arrival",
                          node, {in_port: one_bit(node)},
                          make(dst, hops=0), faults)
                    if len(ports) > 1:
                        other = ports[(ports.index(in_port) + 1) % len(ports)]
                        check(f"{case} {kind} transit beside an arrival",
                              node,
                              {in_port: unicast(node), other: make(dst)},
                              None, faults)
    assert routed == []


def test_lone_flit_path_declines_what_is_not_one_flit_on_a_fast_link(
    lone_path,
):
    """The cases the lone-flit path must hand back untouched, each still
    equal to ``route_node`` through the general step."""
    mesh = MeshTopology(4, 3)
    package = ChipletTopology(3, 2, 2, link_latency=4, link_serialization=2)

    def message(dst, src=0, hops=0):
        return Flit(dst=dst, src=src, ptype=PacketType.MESSAGE,
                    injected_at=3, hops=hops)

    # A self-addressed injection never enters a switch: the zero-hop rule.
    fabric = _step_fabric(mesh, 5, {}, 9, inject=message(5, src=5))
    assert lone_path.returned == [False]
    assert fabric.ports[5].eject.queue.popleft().dst == 5
    assert (fabric.latency.count, fabric.latency.total) == (1, 0)
    assert fabric.stats["flits_injected"] == fabric.stats["flits_ejected"] == 1
    assert fabric.flits_in_network == 0 and not fabric.active

    # Two destinations left, both down one port: one branch, so the
    # switch bypass forwards it — but reading a plan is the general step's.
    del lone_path.returned[:]
    two_bits = Flit(dst=-1, src=0, dst_mask=1 << 2 | 1 << 3,
                    ptype=PacketType.MULTICAST, injected_at=3, hops=1)
    _assert_step_equals_router("two bits", mesh, 1,
                               {mesh.ports_of(1)[0]: two_bits}, None)
    assert lone_path.returned == [False]

    # A link with latency or serialisation above one delivers through the
    # delayed heap (hub -> gateway here), which only the general step fills.
    del lone_path.returned[:]
    hub = package.hub_node
    gateway = package.neighbor_table[hub][package.ports_of(hub)[0]]
    assert package.link_latency_table[hub][package.ports_of(hub)[0]] == 4
    _assert_step_equals_router("slow link", package, hub, {},
                               message(gateway, src=hub))
    assert lone_path.returned == [False]

    # (An active fault mask declines too: the fault-plan test below.)

    # A second flit, in flight on a slow link: the first is forwarded and
    # ejected, and the second — the only flit left — lands and ejects in
    # its due cycle, all by the general step, which alone reads the heap.
    del lone_path.returned[:]
    fabric = NocFabric(package)
    Simulator().register(fabric)
    here, there = 1, 8  # one switch in each chiplet
    out = next(port for port in package.ports_of(here)
               if package.link_latency_table[here][port] == 1)
    first = message(package.neighbor_table[here][out], hops=2)
    second = message(there, hops=1)
    in_port = package.ports_of(there)[0]
    fabric.regs[here][package.reverse_port_table[here][out]] = first
    fabric._work.add(here)
    fabric._delayed.append((11, 1, there, in_port, second))
    fabric._flit_count = 2
    fabric.step(9)
    fabric.step(10)
    assert fabric.ports[first.dst].eject.queue.popleft() is first
    assert fabric.flits_in_network == 1 and fabric._delayed
    fabric.step(11)
    assert lone_path.returned == []
    assert fabric.ports[there].eject.queue.popleft() is second
    assert fabric.flits_in_network == 0 and not fabric.active


def _fault_steps(plan, node, make, cycles, inject=False):
    """A 4x3 mesh fabric under ``plan`` whose one flit, ``make()``, is
    latched in ``node``'s first input register (or, with ``inject``,
    offered to its injection slot), stepped at ``cycles``: everything a
    step can change — the fabric, the injector with its RNG, the FAULT
    events in order."""
    topology = MeshTopology(4, 3)
    injector = FaultInjector(plan, topology)
    fabric = NocFabric(topology, faults=injector)
    Simulator().register(fabric)
    flit = make()
    if inject:
        assert fabric.ports[node].inject.try_inject(flit)  # stamps it
    else:
        injector.stamp(flit)
        fabric.regs[node][topology.ports_of(node)[0]] = flit
        fabric._work.add(node)
        fabric._flit_count = 1
    for cycle in cycles:
        fabric.step(cycle)
    return {
        "fabric": component_state(fabric),
        "faults": plain(injector),
        "events": [(event.cycle, event.tile, event.key, event.payload)
                   for event in injector.events.of_kind(FAULT)],
    }


def _stream_data(dst, src=0):
    return Flit(dst=dst, src=src, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_DATA), seq=7, burst=1,
                data=0xCAFE, injected_at=3, hops=1)


#: (plan, node, flit's destination, cycles stepped, offered to the
#: injection slot, what the lone path returns, the fault counters).
_FAULTED_LONE_STEPS = {
    # Dropped on its hop out of a register, and out of the slot.
    "dropped in transit": (
        FaultPlan(seed=4, drop_rate=1.0), 5, 11, (9,), False, [True],
        {"dropped": 1},
    ),
    "dropped at injection": (
        FaultPlan(seed=4, drop_rate=1.0), 5, 11, (9,), True, [True],
        {"dropped": 1},
    ),
    # Corrupted on its one hop, then thrown away by the ejection port.
    "corrupted, then CRC-dropped": (
        FaultPlan(seed=4, corrupt_rate=1.0), 5, 6, (9, 10), False,
        [True, True], {"corrupted": 1, "crc_dropped": 1},
    ),
    # A switch stalled elsewhere is a live mask: the router's step (whose
    # link hook drops the flit).
    "stall-masked": (
        FaultPlan(seed=4, drop_rate=0.5, stalls=((0, 2, 40),)), 5, 11,
        (9,), False, [False], {"stall_on": 1, "dropped": 1},
    ),
}


@pytest.mark.parametrize("case", _FAULTED_LONE_STEPS)
def test_lone_flit_path_under_a_fault_plan_matches_the_general_step(
    case, lone_path
):
    """A lone flit under a fault plan: the path takes its step while no
    port mask is active — hop through the link hook, ejection through the
    checksum — and declines while one is; either way the fabric, the
    fault counters, the FAULT events and the injector's RNG are those of
    the general step alone (the path's twin, ``lone_path.decline()``)."""
    plan, node, dst, cycles, inject, returned, counted = (
        _FAULTED_LONE_STEPS[case]
    )

    def steps():
        return _fault_steps(plan, node, partial(_stream_data, dst), cycles,
                            inject)

    as_built = steps()
    assert lone_path.returned == returned, case
    assert as_built["faults"]["counts"] == counted, case
    assert as_built["fabric"]["_flit_count"] == 0, case
    with lone_path.decline():
        assert steps() == as_built, case


def test_lone_flit_path_raises_typed_errors():
    """Count and worklist out of step, or a register already held where
    the flit must latch: ``SimulationError``, under ``python -O`` too."""
    mesh = MeshTopology(3, 3)
    fabric = NocFabric(mesh)
    Simulator().register(fabric)
    fabric._work.add(4)
    fabric._flit_count = 1
    with pytest.raises(SimulationError, match=r"cycle 7: node 4 .* no flit"):
        fabric.step(7)

    flit = Flit(dst=8, src=0, ptype=PacketType.MESSAGE, injected_at=0)
    fabric = NocFabric(mesh)
    Simulator().register(fabric)
    in_port = mesh.ports_of(4)[0]
    fabric.regs[4][in_port] = flit
    fabric._work.add(4)
    fabric._flit_count = 1
    direction = mesh.productive_table[4 * mesh.n_nodes + 8][0]
    neighbor = mesh.neighbor_table[4][direction]
    held = mesh.reverse_port_table[4][direction]
    fabric.regs[neighbor][held] = Flit(dst=0, src=8, ptype=PacketType.MESSAGE)
    with pytest.raises(SimulationError, match="link register collision"):
        fabric.step(7)


def test_lone_flit_bypass_keeps_the_spatial_view(lone_path):
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
    assert lone_path.returned == [True, True]


def test_multicast_or_contended_switches_still_take_the_router(monkeypatch):
    """The bypass is for a switch with nothing to arbitrate: at most one
    flit that needs a port, at most one arrival, one branch, no live
    fault mask.  Everything else is the router's."""
    import repro.noc.network as network
    from tests.reference_machine import TWINS  # which imports this module

    routed = []

    def spy(node, inputs, inject, *args, **kwargs):
        routed.append(node)
        return route_node(node, inputs, inject, *args, **kwargs)

    monkeypatch.setattr(network, "route_node", spy)
    # The lone path's twin, so that every step here reaches the switch.
    monkeypatch.setattr(*TWINS["lone_path"])
    topology = MeshTopology(3, 3)
    ports = topology.ports_of(4)

    def unicast(dst=8):
        return Flit(dst=dst, src=0, ptype=PacketType.MESSAGE, injected_at=0)

    def mcast(mask):
        return Flit(dst=-1, src=0, ptype=PacketType.MULTICAST, dst_mask=mask,
                    injected_at=0)

    _step_lone_flit(topology, 4, ports[0], unicast(), 1)
    assert routed == []

    # A plan nobody has built yet is the router's to build ...
    _step_lone_flit(topology, 4, ports[0], mcast(1 << 8), 1)
    assert routed == [4]
    # ... and one branch is forwarded without it from then on.
    _step_lone_flit(topology, 4, ports[0], mcast(1 << 8), 1)
    assert routed == [4]

    # Many branches: replication is arbitration.
    fan_out = 1 << 0 | 1 << 2 | 1 << 6 | 1 << 8
    for _ in range(2):
        fabric = _step_lone_flit(topology, 4, ports[0], mcast(fan_out), 1)
    assert routed == [4, 4, 4]
    assert fabric.stats["mcast_copies"] > 0
    # A copy owed to this node beside further destinations, likewise.
    for _ in range(2):
        _step_lone_flit(topology, 4, ports[0], mcast(1 << 4 | 1 << 8), 1)
    assert routed == [4] * 5

    # Two flits that need a port, or two arrivals.
    _step_fabric(topology, 4, {ports[0]: unicast(), ports[1]: unicast()}, 1)
    _step_fabric(topology, 4, {ports[0]: unicast()}, 1,
                 inject=Flit(dst=0, src=4, ptype=PacketType.MESSAGE))
    _step_fabric(topology, 4, {ports[0]: unicast(4), ports[1]: unicast(4)}, 1)
    assert routed == [4] * 8

    # An active fault mask (a killed link) takes even a lone flit through
    # the router, which alone knows the surviving ports.
    killed = FaultPlan(dead_links=((4, ports[1], 0),))
    _step_fabric(topology, 4, {ports[0]: unicast()}, 1, faults=killed)
    _step_fabric(topology, 4, {}, 1, faults=killed,
                 inject=Flit(dst=0, src=4, ptype=PacketType.MESSAGE))
    assert routed == [4] * 10
