"""One deflection-routing switch, as a pure combinational function.

Hot-potato ("deflection") routing never buffers more than the incoming
flits: every flit present at a switch input is assigned to *some* output
port every cycle.  When its productive port is taken by an older flit it is
deflected to any free port and tries again from wherever it lands.  This
gives minimal storage, no back-pressure and deadlock freedom (paper
Section II-A); livelock is avoided in practice by oldest-first priority,
which the property tests exercise under saturating load.

Keeping the per-switch routing a pure function of (inputs, pending
injection) makes the fabric's two-phase update order-independent and the
routing unit-testable in isolation.

This function sits on the per-flit hot path of every simulated cycle, so
it is written to avoid allocation: free ports are a bitmask rather than a
set, sorting is skipped when at most one flit contends, the topology's
precomputed tables are indexed directly, and the caller may pass a
reusable :class:`RoutingOutcome` scratch structure via ``out``.

**Multicast replication.**  A MULTICAST flit (``dst < 0``) carries a
destination bitmask and is routed along the deterministic dimension-order
tree: at every switch the remaining mask is partitioned by each
destination's *preferred* productive direction, and the flit is replicated
into one copy per branch whose port is free.  Replication is opportunistic
— a branch whose port is taken (or that would starve a younger multicast
flit of its guaranteed port) is merged back into the first placed copy and
re-splits at a later switch, so a multicast flit occupies at least one and
at most ``#branches`` output ports and the deflection invariant (every
transit flit is placed every cycle) is preserved.  Destinations whose bit
matches the local node eject a copy through the normal local port, bounded
by the same ``eject_capacity``.  Multicast flits take the lowest transit
priority, so unicast traffic is routed as if they were not there.

The partition is a pure function of (productive table, node, mask), so it
is a *branch plan* looked up in a table and built on a miss by
:func:`_branch_plan`, its only builder.  The table belongs to whoever owns
the productive table it was derived from: ``Topology.mcast_plans`` for the
pristine one (never rebuilt, never stale), ``FaultInjector.mcast_plans``
for a rerouted ``productive_override``, replaced by an empty one whenever
``_recompute_productive`` rebuilds that.  It is cleared at
``PLAN_TABLE_LIMIT`` entries.  Both routers, and every inline shortcut for
plans with nothing to split, are held flit for flit to their plainest
forms in ``tests/noc/test_switch_golden.py``, and whole systems routed by
the plainest one are the reference machine of ``tests/reference_machine.py``.
"""

from __future__ import annotations

from operator import attrgetter

from repro.errors import SimulationError
from repro.noc.flit import Flit
from repro.noc.topology import Topology

#: Oldest-first priority with a stable tie-break, as a C-level sort key.
_AGE_KEY = attrgetter("injected_at", "uid")

#: Branch plans a table holds before it is cleared and refilled on demand:
#: a run of random masks cannot grow it without bound.
PLAN_TABLE_LIMIT = 1 << 14


class RoutingOutcome:
    """Result of routing one switch for one cycle.

    May be reused across calls as a scratch structure (see
    :func:`route_node`'s ``out`` parameter); ``ejected`` and ``outputs``
    are then overwritten in place.
    """

    __slots__ = ("ejected", "outputs", "injected", "deflections",
                 "eject_overflow", "flit_copies")

    def __init__(
        self,
        ejected: list[Flit] | None = None,
        outputs: list[Flit | None] | None = None,
        injected: bool = False,
        deflections: int = 0,
        eject_overflow: int = 0,
        flit_copies: int = 0,
        n_ports: int = 4,
    ) -> None:
        self.ejected = [] if ejected is None else ejected
        # outputs is indexed by output port, None = idle port.
        self.outputs = [None] * n_ports if outputs is None else outputs
        self.injected = injected
        self.deflections = deflections
        self.eject_overflow = eject_overflow
        #: Net new flits created by multicast replication this cycle (the
        #: fabric adds this to its running in-network flit count).
        self.flit_copies = flit_copies


def route_node(
    node: int,
    inputs: list[Flit | None],
    inject: Flit | None,
    topology: Topology,
    eject_capacity: int = 1,
    out: RoutingOutcome | None = None,
    port_mask: int = -1,
    productive: list[tuple[int, ...]] | None = None,
    plans: dict[int, tuple] | None = None,
) -> RoutingOutcome:
    """Route all flits present at ``node`` for this cycle.

    ``inputs`` are the flits latched in this switch's input registers (at
    most one per link).  ``inject`` is the locally pending flit, accepted
    only if an output port remains free after all transit flits are placed
    (local traffic has the lowest priority, the standard deflection rule).

    ``port_mask`` (default -1 = all physical ports) overrides the usable
    output ports — the fault layer's hook for killed links and stalled
    neighbours.  A masked port stops accepting *new* traffic immediately;
    on the activation cycle the node may still hold more transit flits
    than live outputs, and the excess drains across a masked-but-present
    wire once (see the spill paths below), preserving the deflection
    invariant without dropping anything.

    ``productive`` (default None = the topology's table) substitutes a
    mask-aware productive-direction table — the fault layer's rerouted
    tables after a permanent link kill, without which X-Y preference can
    steer flits into a dead-end next to the dead link forever.  ``plans``
    is the branch-plan table derived from that substitute (its owner's
    ``mcast_plans``); without one a substituted table's plans are built
    per call and forgotten.

    Up to ``eject_capacity`` flits destined for this node leave through the
    local port, oldest first; any excess arrival is deflected back into the
    network and will retry — the hot-potato answer to an ejection-port
    conflict.

    When ``out`` is given, its lists are recycled and it is returned;
    otherwise a fresh :class:`RoutingOutcome` is allocated.  ``inputs``
    may contain ``None`` entries (idle links), which lets the fabric pass
    its register row without building a filtered list; the caller must
    never present more flits than the node has links.
    """
    if out is None:
        out = RoutingOutcome(n_ports=topology.max_ports)
    else:
        out.ejected.clear()
        out.outputs[:] = [None] * len(out.outputs)
        out.injected = False
        out.flit_copies = 0
    ejected = out.ejected
    outputs = out.outputs

    arrived: list[Flit] | None = None
    contenders: list[Flit] | None = None
    mcast: list[Flit] | None = None
    for flit in inputs:
        if flit is None:
            continue
        dst = flit.dst
        if dst == node:
            if arrived is None:
                arrived = [flit]
            else:
                arrived.append(flit)
        elif dst >= 0:
            if contenders is None:
                contenders = [flit]
            else:
                contenders.append(flit)
        else:  # mask-routed MULTICAST flit
            if mcast is None:
                mcast = [flit]
            else:
                mcast.append(flit)

    eject_overflow = 0
    if arrived is not None:
        if len(arrived) > 1:
            arrived.sort(key=_AGE_KEY)
        ejected.extend(arrived[:eject_capacity])
        recirculating = arrived[eject_capacity:]
        if recirculating:
            eject_overflow = len(recirculating)
            if contenders is None:
                contenders = recirculating
            else:
                contenders.extend(recirculating)
    out.eject_overflow = eject_overflow

    free_mask = topology.port_mask_table[node] if port_mask < 0 else port_mask
    if productive is None:
        productive = topology.productive_table
        plans = topology.mcast_plans
    elif plans is None:
        plans = {}
    n_nodes = topology.n_nodes
    base = node * n_nodes
    deflections = 0

    if contenders is not None:
        # Oldest flit gets first pick of ports: the practical livelock guard.
        if len(contenders) > 1:
            contenders.sort(key=_AGE_KEY)
        for flit in contenders:
            for direction in productive[base + flit.dst]:
                bit = 1 << direction
                if free_mask & bit:
                    break
            else:
                # Deflect: the lowest free port (deterministic).
                bit = free_mask & -free_mask
                direction = bit.bit_length() - 1 if bit else _spill_port(
                    node, flit, outputs, topology, port_mask >= 0
                )
                flit.deflections += 1
                deflections += 1
            outputs[direction] = flit
            free_mask ^= bit  # a spill takes no free port: bit is 0
    out.deflections = deflections

    if mcast is not None:
        # Multicast flits have the lowest transit priority (unicast
        # contenders were placed first), are processed oldest first among
        # themselves, and each is guaranteed one output port by the
        # deflection invariant; extra branch splits only consume ports
        # that no younger multicast flit still needs (``reserve``).
        if len(mcast) > 1:
            mcast.sort(key=_AGE_KEY)
        node_bit = 1 << node
        eject_budget = eject_capacity - len(ejected)
        reserve = len(mcast)
        for flit in mcast:
            reserve -= 1
            mask = flit.dst_mask
            if mask & node_bit:
                if eject_budget > 0:
                    eject_budget -= 1
                    mask ^= node_bit
                    if mask == 0:
                        # Last destination: the flit itself leaves the network.
                        flit.dst = node
                        flit.dst_mask = 0
                        ejected.append(flit)
                        continue
                    ejected.append(_copy_flit(flit, dst=node, dst_mask=node_bit))
                    out.flit_copies += 1
                    flit.dst_mask = mask
                else:
                    # Ejection port saturated: keep the local bit set so the
                    # flit recirculates and retries — the hot-potato answer.
                    out.eject_overflow += 1
            plan = plans.get(mask * n_nodes + node) or _branch_plan(
                node, mask, productive, topology, plans
            )
            if free_mask & plan[0]:
                # One branch, port free (every one-member group): what
                # _place_multicast does with it, mask untouched because
                # branch | deferred is the whole mask.  Checked flit for
                # flit by tests/noc/test_switch_golden.py.
                outputs[plan[1]] = flit
                free_mask ^= plan[0]
            elif free_mask and len(plan[2]) < 2:
                # Nothing to split, and the one port taken (or only the
                # local bit left while the ejection port is saturated):
                # the whole flit deflects to the lowest free port, which
                # is where _place_multicast's scan ends up.  Same test.
                bit = free_mask & -free_mask
                outputs[bit.bit_length() - 1] = flit
                free_mask ^= bit
                flit.deflections += 1
                out.deflections += 1
            else:
                free_mask = _place_multicast(
                    node, flit, plan, free_mask, reserve, topology, out,
                    transit=True, spill=port_mask >= 0,
                )

    if inject is not None and free_mask:
        if inject.dst < 0:
            # A pending MULTICAST injection takes whatever ports the
            # transit traffic left over — any free port when no branch
            # port is available, like the unicast injection rule (and
            # like it, without counting a deflection); with free_mask
            # zero the slot simply retries next cycle.
            mask = inject.dst_mask
            plan = plans.get(mask * n_nodes + node) or _branch_plan(
                node, mask, productive, topology, plans
            )
            if free_mask & plan[0]:  # the one-branch placement, as above
                outputs[plan[1]] = inject
            elif len(plan[2]) < 2:  # nothing to split: lowest free port
                outputs[(free_mask & -free_mask).bit_length() - 1] = inject
            else:
                _place_multicast(
                    node, inject, plan, free_mask, 0, topology, out,
                    transit=False,
                )
            out.injected = True
            return out
        for direction in productive[base + inject.dst]:
            if free_mask >> direction & 1:
                break
        else:
            # Lowest free direction index, matching min() over the old set.
            direction = (free_mask & -free_mask).bit_length() - 1
        outputs[direction] = inject
        out.injected = True

    return out


def _copy_flit(flit: Flit, dst: int, dst_mask: int) -> Flit:
    """A replica of ``flit`` (fresh uid, same age/protocol fields)."""
    return Flit(
        dst, flit.src, flit.ptype, flit.subtype, flit.seq, flit.burst,
        flit.data, dst_mask, flit.crc, injected_at=flit.injected_at,
        hops=flit.hops, deflections=flit.deflections,
    )


def _branch_plan(
    node: int,
    mask: int,
    productive: list[tuple[int, ...]],
    topology: Topology,
    plans: dict[int, tuple],
) -> tuple:
    """Partition ``mask`` by tree branch at ``node`` and remember the plan
    in ``plans`` under ``mask * n_nodes + node``.

    The only builder of branch plans (module docstring): each destination
    joins the branch of its *preferred* productive direction.  Returns
    ``(lone_bit, lone_direction, branches, deferred)`` — ``branches`` is
    ``((direction, port bit, branch mask), ...)`` in port order,
    ``deferred`` the bits that stay on whichever copy leaves first (the
    local bit awaiting a free ejection port, and destinations a
    fault-rerouted table cannot reach), and ``lone_bit``/``lone_direction``
    name the port of a one-branch plan (``lone_bit`` is 0 otherwise).
    """
    base = node * topology.n_nodes
    deferred = mask & (1 << node)  # deferred local delivery
    groups = [0] * topology.max_ports
    m = mask ^ deferred
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
            deferred |= bit
    branches = tuple(
        (direction, 1 << direction, branch)
        for direction, branch in enumerate(groups) if branch
    )
    lone_direction, lone_bit = branches[0][:2] if len(branches) == 1 else (-1, 0)
    plan = (lone_bit, lone_direction, branches, deferred)
    if len(plans) >= PLAN_TABLE_LIMIT:
        plans.clear()
    plans[mask * topology.n_nodes + node] = plan
    return plan


def _place_multicast(
    node: int,
    flit: Flit,
    plan: tuple,
    free_mask: int,
    reserve: int,
    topology: Topology,
    out: RoutingOutcome,
    transit: bool,
    spill: bool = False,
) -> int:
    """Replicate one multicast flit toward the branches of its ``plan``.

    Places one copy per branch whose port is free (keeping ``reserve``
    ports for later flits), merges unplaceable branches into the first
    placed copy, and deflects the whole flit when no branch port is free.
    Returns the updated free mask.  ``transit=False`` is the pending
    injection, which is only offered while a port is free.
    """
    __, __, branches, deferred = plan
    outputs = out.outputs
    free_count = free_mask.bit_count()
    first_copy: Flit | None = None
    # An extra branch copy may take a port only while the ports left
    # afterwards cover every younger multicast flit's guaranteed placement
    # plus the topology's split slack (grids keep one spare port for local
    # injection; a chiplet hub needs the exact bound — see
    # ``Topology.mcast_split_slack``).
    needed = reserve + topology.mcast_split_slack
    for direction, bit, branch in branches:
        if free_mask & bit and (first_copy is None or free_count > needed):
            if first_copy is None:
                flit.dst_mask = branch
                outputs[direction] = flit
                first_copy = flit
            else:
                copy = _copy_flit(flit, dst=flit.dst, dst_mask=branch)
                out.flit_copies += 1
                outputs[direction] = copy
            free_mask ^= bit
            free_count -= 1
        else:
            deferred |= branch
    if first_copy is not None:
        if deferred:
            first_copy.dst_mask |= deferred
        return free_mask
    # No branch port was free: send the whole flit out the lowest free
    # port (deterministic), mask intact (``deferred`` has gathered
    # every branch by now).  For transit flits this is a deflection and
    # is counted as one; an injection taking a non-productive first hop
    # is not (matching the unicast rule).
    if free_mask:
        bit = free_mask & -free_mask
        outputs[bit.bit_length() - 1] = flit
        if transit:
            flit.deflections += 1
            out.deflections += 1
        return free_mask ^ bit
    outputs[_spill_port(node, flit, outputs, topology, spill)] = flit
    flit.deflections += 1
    out.deflections += 1
    return free_mask


def _spill_port(
    node: int, flit: Flit, outputs: list, topology: Topology, spill: bool
) -> int:
    """The port a transit flit leaves through when no usable one is free.

    Fault masks shrink output capacity one cycle before the senders'
    masks throttle arrivals, so a link-kill or stall activation cycle can
    present more transit flits than live outputs.  With ``spill`` (a fault
    mask is in force) the excess drains across a masked but physically
    present wire: the dying link delivers its in-flight traffic; a stalled
    neighbour latches and holds it.  Anything else breaks the deflection
    invariant — the caller presented more flits than the node has links.
    """
    if spill:
        for direction in topology.ports_table[node]:
            if outputs[direction] is None:
                return direction
    raise SimulationError(
        f"deflection routing must always place a transit flit: no output "
        f"port left at node {node} for {flit!r}"
    )
