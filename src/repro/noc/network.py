"""The clocked NoC fabric: link registers, injection and ejection ports.

The fabric is a single :class:`~repro.kernel.component.Component` stepped
once per cycle while any flit is in flight or any injection slot is
pending.  All switches route combinationally against the *previous* cycle's
link registers (two-phase update), so results are independent of node
iteration order — matching the synchronous RTL the paper pairs with its
SystemC model.

Timing contract (one hop = one cycle):

* a flit accepted from an injection slot at cycle *c* is latched in the
  neighbor's input register and visible there at *c+1*;
* ejection pushes into the node's RX queue during the fabric step, and the
  owning node (stepped after the fabric in the same cycle — registration
  order) may consume it immediately, modelling the direct TIE connection
  into the processor register file.

**Uncontended-switch bypass.**  A switch is not handed to
:func:`~repro.noc.switch.route_node` when there is nothing to arbitrate: no
fault mask is active, at most one flit arrives for this node (a unicast
flit addressed to it, or a multicast flit with only its bit left), and at
most one occupant needs an output port — a transit flit or the pending
injection, unicast or with a one-branch plan the router has already built
and no copy owed here.  The arrival ejects, the mover takes its first
productive port — what the router computes when nobody contends — and both
fall into the same eject and forward code as routed flits (fault hooks
included).  ``tests/noc/test_switch_golden.py`` compares the two for every
(switch, input link, destination).

**Lone-flit path.**  A step of a network that holds exactly one flit has
nothing to arbitrate and nothing to commit, and on the shared-memory path
that is almost every step (93 % of a write-through Jacobi's, 3 % of a
DMA ring allreduce's).  :meth:`NocFabric.step` sees it in the fabric's own
state — one flit counted, one node on the worklist, the delayed heap
empty — and :meth:`NocFabric._step_lone` finds the flit — the pending
injection, or the input register the path last latched a flit in
(``_lone_in``, a host-side hint; one the general step latched is found
by a scan of the row) — ejects it through
:meth:`NocFabric._eject` if it is home, else latches it straight into the
neighbour's register on its first productive port, with the counters, the
spatial view and the injection bookkeeping of the general step.  The
per-flit counters of both steps are plain ints that every read of
``stats`` folds in.  It declines, touching nothing, what needs more than
that: a multicast flit with several destinations left, a self-addressed
injection (the zero-hop rule), a link with latency or serialisation above
one (the delayed heap), an empty productive set; the general step then
runs as if the path did not exist.  Under a fault plan it runs while no
port mask is active (no link killed, no switch stalled): it reads the
fault schedule when it is due, as the general step would have in that
cycle, and declines while a mask is active; its hop passes the injector's
link hook (a drop takes the flit out of the network, a corrupted one
travels on) and its ejection the checksum check, as in the general step.
``test_lone_flit_bypass_matches_route_node_everywhere`` (same file) holds
it to ``route_node`` for every (switch, input link or injection slot,
destination) and says which path ran.  Whole systems run with it
declining, beside every other skip turned off, on the reference
machine of ``tests/reference_machine.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.errors import ProtocolError, SimulationError
from repro.kernel.component import Component
from repro.kernel.stats import LatencyStat
from repro.kernel.trace import EJECT, EventLog
from repro.noc.flit import Flit
from repro.noc.packet import MULTICAST, PTYPE_NAME, FlitCodec
from repro.noc.switch import RoutingOutcome, route_node
from repro.noc.topology import Topology


class InjectionPort:
    """Single-register injection slot between a node and its switch.

    The node's arbiter writes one flit at a time with :meth:`try_inject`;
    the fabric drains the slot when routing permits (an output port must be
    free, the deflection-network injection rule).
    """

    __slots__ = ("node", "fabric", "pending", "stalled_cycles", "injected")

    def __init__(self, node: int, fabric: "NocFabric") -> None:
        self.node = node
        self.fabric = fabric
        self.pending: Flit | None = None
        self.stalled_cycles = 0
        self.injected = 0

    @property
    def busy(self) -> bool:
        return self.pending is not None

    def try_inject(self, flit: Flit) -> bool:
        """Offer a flit to the network; False when the slot is still busy."""
        if self.pending is not None:
            return False
        fabric = self.fabric
        if fabric.faults is not None:
            fabric.faults.stamp(flit)
        # The passing arms of validate_flit, unicast and multicast, inline
        # (tests/noc/test_network.py and test_multicast.py hold both to its
        # verdicts); the full check, with its error messages and the strict
        # wire encoding, runs only when needed.
        n = fabric.topology.n_nodes
        mask = flit.dst_mask
        if fabric.strict_encoding or not (0 <= flit.src < n and (
            0 <= flit.dst < n
            or (flit.dst < 0 and flit.ptype is MULTICAST
                and 0 < mask < 1 << n and not mask >> flit.src & 1)
        )):
            fabric.validate_flit(flit)
        self.pending = flit
        fabric._work.add(self.node)
        fabric._flit_count += 1
        if not fabric.active:
            fabric.wake()
        return True


class EjectionPort:
    """RX side of a node: flits leave the network into this queue.

    The queue is backed by local memory in the real design (the TIE
    interface scatters arrivals straight into the processor data RAM), so
    it is modelled unbounded; the network still ejects at most
    ``eject_capacity`` flits per cycle.  Being unbounded and counting
    nothing, it is a plain ``collections.deque``: the fabric appends, the
    owner takes the oldest flit with ``popleft``.
    """

    __slots__ = ("node", "queue", "owner")

    def __init__(self, node: int) -> None:
        self.node = node
        self.queue: deque[Flit] = deque()
        #: Woken by the fabric when a flit lands in ``queue``.
        self.owner: Component | None = None


class NodePorts:
    """The pair of ports a node uses to talk to the NoC."""

    __slots__ = ("node", "inject", "eject")

    def __init__(self, node: int, inject: InjectionPort, eject: EjectionPort):
        self.node = node
        self.inject = inject
        self.eject = eject


class SpatialCounters:
    """Per-link / per-switch matrices for the telemetry heatmap view.

    Opt-in (:meth:`NocFabric.enable_spatial`): when absent the fabric's
    hot path pays only an is-it-None check, preserving bit-identical
    goldens and PR-1's allocation-free step.
    """

    __slots__ = ("link_transits", "switch_deflections", "node_ejects")

    def __init__(self, n_nodes: int, n_ports: int = 4) -> None:
        #: ``[receiver][in_port]`` -> flits latched off that input link.
        self.link_transits = [[0] * n_ports for _ in range(n_nodes)]
        self.switch_deflections = [0] * n_nodes
        self.node_ejects = [0] * n_nodes


class NocFabric(Component):
    """All switches and links of the network, stepped as one component."""

    def __init__(
        self,
        topology: Topology,
        eject_capacity: int = 1,
        strict_encoding: bool = False,
        events: EventLog | None = None,
        faults=None,
    ) -> None:
        super().__init__("noc")
        self.topology = topology
        self.eject_capacity = eject_capacity
        self.strict_encoding = strict_encoding
        #: Optional :class:`repro.faults.FaultInjector` — the single hook
        #: behind which every fault-layer branch hides; None keeps the
        #: fault-free hot path allocation-free and bit-identical.
        self.faults = faults
        # Every node must be nameable in a multicast mask; on networks
        # bigger than the base format's spare bits the codec widens the
        # header (the two-flit-header extension in packet.py).  With the
        # fault layer active the wire format also carries the reliable-
        # delivery extension: a 16-bit sequence number (so retransmits
        # place exactly, with duplicates detected rather than aliased)
        # and an 8-bit end-to-end checksum trailer, both absorbed by the
        # same whole-byte widening rule as the multicast mask.
        self.codec = FlitCodec(
            topology.width, topology.height,
            min_mask_bits=topology.n_nodes,
            seq_bits=16 if faults is not None else 4,
            crc_bits=8 if faults is not None else 0,
            # The base format's 4 source bits cover up to 16 tiles; larger
            # coordinate planes (chiplet systems address hundreds) widen
            # the field, absorbed by the whole-byte widening rule.
            src_bits=max(
                4, (topology.width * topology.height - 1).bit_length()
            ),
        )
        #: Where per-flit EJECT events go; None (the default) records
        #: none and keeps ``_eject`` at one is-it-None test.
        self.events = events
        n = topology.n_nodes
        n_ports = topology.max_ports
        # regs[node][in_port] = flit latched on that input link.
        self.regs: list[list[Flit | None]] = [
            [None] * n_ports for _ in range(n)
        ]
        # Slow or narrow links (latency > 1 or serialization > 1, the
        # inter-chiplet case) deliver through a timestamped heap instead
        # of the commit phase: (due_cycle, seq, node, in_port, flit).
        # ``direct_links[node][port]`` says which mechanism a link uses;
        # on uniform-link topologies (every grid) the heap stays empty.
        direct_links = [
            [link is not None and link[2:] == (1, 1) for link in row]
            for row in topology.link_table
        ]
        self._delayed: list[tuple[int, int, int, int, Flit]] = []
        self._delay_seq = 0
        # Wire occupancy for serializing links, indexed node*n_ports+port:
        # the cycle the wire frees up (a narrower off-die link holds each
        # flit for `serialization` cycles; followers queue behind).
        self._wire_free = [0] * (n * n_ports)
        # Incremental worklist: nodes with a latched flit or pending
        # injection.  Maintained by try_inject and the commit phase so a
        # step never scans the whole fabric.
        self._work: set[int] = set()
        # Running count of flits in the network (regs + injection slots):
        # +1 on accepted injection, -1 on ejection.
        self._flit_count = 0
        self.ports: list[NodePorts] = [
            NodePorts(node, InjectionPort(node, self), EjectionPort(node))
            for node in range(n)
        ]
        self.latency = LatencyStat("noc_latency")
        # The three per-flit counters, plain ints that every read of
        # ``stats`` folds in.
        self._n_flits_injected = self._n_flits_ejected = self._n_flit_hops = 0
        self.stats.batch(self, (
            ("_n_flits_injected", "flits_injected"),
            ("_n_flits_ejected", "flits_ejected"),
            ("_n_flit_hops", "flit_hops"),
        ))
        #: The input port the lone path last latched a flit on: where
        #: the next lone step looks first.
        self._lone_in = 0
        #: Optional per-link/per-switch matrices (telemetry spatial view).
        self._spatial: SpatialCounters | None = None
        # What step() reads on every call and nothing rebinds after the
        # build — the fabric's own containers and the topology's tables,
        # the same objects, so an edit made in place (a test's hand-written
        # routing entry, the plan table clearing itself at its limit) is
        # seen — bound once, to be unpacked in one go rather than looked
        # up attribute by attribute every cycle.  ``_spatial`` and the
        # fault layer's rerouted tables *are* rebound after the build and
        # are read where they are used.  Four live only here:
        # the step's (neighbor, in_port, flit) move list, the direct-link
        # flags, the all-None row a routed switch's registers are reset to
        # and the router's reusable outcome.
        moves: list[tuple[int, int, Flit]] = []
        self._bound = (
            self._work, self.regs, self._delayed, moves, self.ports,
            topology.neighbor_table, topology.reverse_port_table,
            direct_links, range(n_ports),
            tuple((port,) for port in range(n_ports)), [None] * n_ports, n,
            topology.productive_table, topology.mcast_plans, topology,
            eject_capacity, RoutingOutcome(n_ports=n_ports),
        )
        # The same for _step_lone, which reads fewer of them, and the
        # fault injector, which nothing rebinds either.
        self._lone_bound = (
            self._work, self.regs, self.ports, n, topology.productive_table,
            direct_links, topology.neighbor_table,
            topology.reverse_port_table, faults,
        )

    # -- node-facing API -----------------------------------------------------

    def ports_of(self, node: int) -> NodePorts:
        return self.ports[node]

    def validate_flit(self, flit: Flit) -> None:
        """Range-check (and optionally wire-encode) a flit at injection."""
        n = self.topology.n_nodes
        if flit.dst < 0:
            # Mask-routed multicast: the bitmask replaces the X-Y address.
            if flit.ptype is not MULTICAST:
                raise ProtocolError(f"negative dst on non-multicast {flit!r}")
            mask = flit.dst_mask
            if not (0 < mask < (1 << n)):
                raise ProtocolError(
                    f"multicast mask out of range for {n} nodes: {flit!r}"
                )
            if mask & (1 << flit.src):
                raise ProtocolError(
                    f"multicast mask includes the source node: {flit!r}"
                )
            if not (0 <= flit.src < n):
                raise ProtocolError(f"flit endpoints out of range: {flit!r}")
            if self.strict_encoding:
                self.codec.encode(
                    0, 0, int(flit.ptype), flit.subtype, flit.seq,
                    min(flit.burst, self.codec.max_burst), flit.src, flit.data,
                    mask=mask, crc=max(flit.crc, 0),
                )
            return
        if not (0 <= flit.dst < n and 0 <= flit.src < n):
            raise ProtocolError(f"flit endpoints out of range: {flit!r}")
        if self.strict_encoding:
            x, y = self.topology.coords_of(flit.dst)
            self.codec.encode(
                x, y, int(flit.ptype), flit.subtype, flit.seq,
                min(flit.burst, self.codec.max_burst), flit.src, flit.data,
                crc=max(flit.crc, 0),
            )

    # -- clocked behaviour ------------------------------------------------------

    def step(self, cycle: int) -> None:
        # Lone-flit path (module docstring), chosen from the fabric's own
        # state; the cheapest test to fail comes first.
        if (
            self._flit_count == 1 and not self._delayed
            and len(self._work) == 1 and self._step_lone(cycle)
        ):
            return
        (work, regs, delayed, moves, ports, neighbor_table, reverse_table,
         direct_table, port_range, one_port, idle_row, n_nodes,
         productive_table, plans, topo, eject_capacity, scratch) = self._bound
        spatial = self._spatial
        if delayed and delayed[0][0] <= cycle:
            # Slow-link arrivals latch at the start of their due cycle —
            # the moment the commit phase of cycle-1 would have latched a
            # single-cycle link.  A held register (stalled receiver)
            # skids the wire one cycle rather than dropping.
            while delayed and delayed[0][0] <= cycle:
                __, seq, node, in_port, flit = heappop(delayed)
                if regs[node][in_port] is None:
                    regs[node][in_port] = flit
                    work.add(node)
                    if spatial is not None:
                        spatial.link_transits[node][in_port] += 1
                else:
                    # due becomes cycle+1 (> cycle), so this terminates.
                    heappush(delayed, (cycle + 1, seq, node, in_port, flit))
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()
            return
        # The worklist is emptied here and re-populated below by the
        # commit phase / stalls.
        if len(work) == 1:
            work_nodes = (work.pop(),)
        else:
            work_nodes = sorted(work)
            work.clear()
        del moves[:]
        faults = self.faults
        masks_active = False
        if faults is not None:
            if cycle >= faults.next_due:
                faults.advance(cycle)
            masks_active = faults.masks_active
        # Per-step counter accumulation, added to the counters once.
        flits_injected = injection_stalls = deflections = eject_overflows = 0
        flits_ejected = flit_hops = 0
        for node in work_nodes:
            if masks_active and faults.stalled(node):
                # A stalled switch holds its input registers latched and
                # neither routes nor accepts anything; neighbours already
                # exclude it from their output masks.
                work.add(node)
                continue
            row = regs[node]
            port = ports[node]
            inject = port.inject.pending

            # A self-addressed flit bypasses the switch entirely.
            if inject is not None and inject.dst == node:
                inject.injected_at = cycle
                port.inject.pending = None
                port.inject.injected += 1
                flits_injected += 1
                if self._eject(port, inject, cycle, zero_hop=True):
                    flits_ejected += 1
                    flit_hops += inject.hops
                inject = None
            elif inject is not None and inject.dst < 0:
                # Stamp mask-routed injections *before* routing: the
                # switch may replicate them right here, and the copies
                # inherit injected_at (age priority + latency baseline).
                # A stalled injection is simply re-stamped next cycle.
                inject.injected_at = cycle

            # Uncontended-switch bypass (module docstring); any second
            # arrival or mover breaks out of the scan to the router.
            direction = -1  # >= 0: the mover's port; -2: nothing to forward
            if not masks_active:
                mover = inject
                arrival = None
                for flit in row:
                    if flit is None:
                        continue
                    dst = flit.dst
                    if dst == node or (dst < 0 and flit.dst_mask == 1 << node):
                        if arrival is not None:
                            break
                        arrival = flit
                    elif mover is not None:
                        break
                    else:
                        mover = flit
                else:
                    if mover is None:
                        direction = -2
                    elif mover.dst >= 0:
                        dirs = productive_table[node * n_nodes + mover.dst]
                        if dirs:
                            direction = dirs[0]
                    elif not mover.dst_mask >> node & 1:
                        # A one-branch plan the router has already built
                        # (plan[0] is its port bit, 0 for other plans).
                        plan = plans.get(mover.dst_mask * n_nodes + node)
                        if plan is not None and plan[0]:
                            direction = plan[1]
            if direction != -1:
                row[:] = idle_row
                if arrival is not None:
                    if arrival.dst < 0:
                        # Last destination of a multicast flit: it leaves
                        # the network itself, as a unicast arrival would.
                        arrival.dst = node
                        arrival.dst_mask = 0
                    if self._eject(port, arrival, cycle):
                        flits_ejected += 1
                        flit_hops += arrival.hops
                if direction < 0:
                    continue
                if mover is inject:
                    inject.injected_at = cycle
                    port.inject.pending = None
                    port.inject.injected += 1
                    flits_injected += 1
                # The one mover goes straight onto its port; the forward
                # stage scans that port alone.
                outputs = scratch.outputs
                outputs[direction] = mover
                placed = one_port[direction]
            else:
                # The register row is handed to the router as-is (it
                # skips idle links); clear it only after routing has
                # read it.
                if masks_active:
                    outcome = route_node(
                        node, row, inject, topo, eject_capacity, scratch,
                        faults.out_mask(node), faults.productive_override,
                        faults.mcast_plans,
                    )
                else:
                    outcome = route_node(
                        node, row, inject, topo, eject_capacity, scratch
                    )
                row[:] = idle_row
                for flit in outcome.ejected:
                    if self._eject(port, flit, cycle):
                        flits_ejected += 1
                        flit_hops += flit.hops
                if outcome.flit_copies:
                    # Multicast replication grew the in-network population.
                    self._flit_count += outcome.flit_copies
                    self.stats.inc("mcast_copies", outcome.flit_copies)
                if inject is not None:
                    if outcome.injected:
                        inject.injected_at = cycle
                        port.inject.pending = None
                        port.inject.injected += 1
                        flits_injected += 1
                    else:
                        port.inject.stalled_cycles += 1
                        injection_stalls += 1
                        work.add(node)  # the slot retries next cycle
                deflections += outcome.deflections
                if spatial is not None and outcome.deflections:
                    spatial.switch_deflections[node] += outcome.deflections
                eject_overflows += outcome.eject_overflow
                outputs = outcome.outputs
                placed = port_range
            # Forward stage, shared by both paths: every placed flit
            # crosses its link (and is taken off the scratch outputs).
            neighbor_row = neighbor_table[node]
            reverse_row = reverse_table[node]
            direct_row = direct_table[node]
            for direction in placed:
                flit = outputs[direction]
                if flit is not None:
                    outputs[direction] = None
                    if faults is not None and not faults.on_link(
                        node, direction, flit, cycle
                    ):
                        # Dropped on the wire: never latched, gone from
                        # the in-network population.
                        self._flit_count -= 1
                        continue
                    neighbor = neighbor_row[direction]
                    if neighbor < 0:
                        raise SimulationError(
                            f"cycle {cycle}: node {node} routed {flit!r} to "
                            f"a missing link (port {direction})"
                        )
                    flit.hops += 1
                    if direct_row[direction]:
                        moves.append((neighbor, reverse_row[direction], flit))
                    else:
                        # Slow or narrow wire: the flit is in flight for
                        # `latency` cycles and occupies the serializing
                        # link for `ser`; followers queue behind.
                        wire_free = self._wire_free
                        wire = node * topo.max_ports + direction
                        start = wire_free[wire]
                        if start < cycle:
                            start = cycle
                        wire_free[wire] = (
                            start + topo.link_ser_table[node][direction]
                        )
                        self._delay_seq += 1
                        heappush(delayed, (
                            start + topo.link_latency_table[node][direction],
                            self._delay_seq, neighbor,
                            reverse_row[direction], flit,
                        ))
        # Commit phase: latch flits into next cycle's input registers.
        for neighbor, in_dir, flit in moves:
            slot = regs[neighbor][in_dir]
            if slot is not None:
                raise SimulationError(
                    f"link register collision at node {neighbor} dir {in_dir}"
                )
            regs[neighbor][in_dir] = flit
            work.add(neighbor)
        if spatial is not None and moves:
            transits = spatial.link_transits
            for neighbor, in_dir, __ in moves:
                transits[neighbor][in_dir] += 1
        self._n_flits_injected += flits_injected
        self._n_flits_ejected += flits_ejected
        self._n_flit_hops += flit_hops
        inc = self.stats.inc
        if injection_stalls:
            inc("injection_stalls", injection_stalls)
        if deflections:
            inc("deflections", deflections)
        if eject_overflows:
            inc("eject_overflows", eject_overflows)
        if not work:
            if delayed:
                self.sleep(until=delayed[0][0])
            else:
                self.sleep()

    def _step_lone(self, cycle: int) -> bool:
        """One step of a network that holds a single flit (module
        docstring); False, with nothing touched but the fault schedule
        the general step reads in the same cycle, hands the step to the
        general path."""
        (work, regs, ports, n_nodes, productive_table, direct_table,
         neighbor_table, reverse_table, faults) = self._lone_bound
        if faults is not None:
            if cycle >= faults.next_due:
                faults.advance(cycle)  # as the general step would now
            if faults.masks_active:
                return False  # a stalled switch or a dead port: routing
        (node,) = work
        port = ports[node]
        slot = port.inject
        row = regs[node]
        flit = slot.pending
        in_port = -1  # the injection slot
        if flit is None:
            in_port = self._lone_in
            flit = row[in_port]
            if flit is None:  # the general step latched it: find it
                for in_port, flit in enumerate(row):
                    if flit is not None:
                        break
                else:
                    raise SimulationError(
                        f"cycle {cycle}: node {node} is on the fabric's "
                        f"worklist with no flit latched or pending (1 flit "
                        f"counted in the network)"
                    )
        dst = flit.dst
        if dst < 0:
            mask = flit.dst_mask
            if mask & mask - 1:
                return False  # several destinations: replication is routing
            dst = mask.bit_length() - 1
        if dst == node:
            if in_port < 0:
                return False  # self-addressed injection: the zero-hop rule
            row[in_port] = None
            work.clear()
            if flit.dst < 0:
                # Last destination of a multicast flit: it leaves the
                # network itself, as a unicast arrival would.
                flit.dst = node
                flit.dst_mask = 0
            if self._eject(port, flit, cycle):
                self._n_flits_ejected += 1
                self._n_flit_hops += flit.hops
            self.sleep()
            return True
        dirs = productive_table[node * n_nodes + dst]
        if not dirs:
            return False
        direction = dirs[0]
        if not direct_table[node][direction]:
            return False  # a slow, narrow or missing link
        neighbor = neighbor_table[node][direction]
        in_dir = reverse_table[node][direction]
        latch = regs[neighbor]
        if latch[in_dir] is not None:
            raise SimulationError(
                f"link register collision at node {neighbor} dir {in_dir}"
            )
        if in_port < 0:
            flit.injected_at = cycle
            slot.pending = None
            slot.injected += 1
            self._n_flits_injected += 1
        else:
            row[in_port] = None
        work.clear()
        if faults is not None and not faults.on_link(
            node, direction, flit, cycle
        ):
            # Dropped on the wire: gone from the in-network population.
            self._flit_count -= 1
            self.sleep()
            return True
        flit.hops += 1
        latch[in_dir] = flit
        self._lone_in = in_dir
        work.add(neighbor)
        spatial = self._spatial
        if spatial is not None:
            spatial.link_transits[neighbor][in_dir] += 1
        return True

    def _eject(
        self, port: NodePorts, flit: Flit, cycle: int, zero_hop: bool = False
    ) -> bool:
        """Take ``flit`` out of the network at ``port``; False when the
        ejection port threw it away instead of delivering it."""
        if self.faults is not None and not self.faults.check_eject(
            flit, port.node, cycle
        ):
            # Checksum mismatch: the ejection port discards the flit, so
            # corruption degenerates to loss and the NACK path repairs it.
            self._flit_count -= 1
            return False
        latency = 0 if zero_hop else cycle - flit.injected_at + 1
        counts = self.latency.counts  # LatencyStat.record, inline
        counts[latency] = counts.get(latency, 0) + 1
        self._flit_count -= 1
        if self._spatial is not None:
            self._spatial.node_ejects[port.node] += 1
        if self.events is not None:
            self.events.emit(
                cycle, port.node, EJECT, flit.uid,
                (PTYPE_NAME[flit.ptype], latency),
            )
        eject = port.eject
        eject.queue.append(flit)
        owner = eject.owner
        if owner is not None and not owner.active:
            owner.wake()
        return True

    # -- telemetry spatial view ----------------------------------------------

    def enable_spatial(self) -> SpatialCounters:
        """Start keeping per-link/per-switch matrices (telemetry only)."""
        if self._spatial is None:
            self._spatial = SpatialCounters(
                self.topology.n_nodes, self.topology.max_ports
            )
        return self._spatial

    def spatial_values(self) -> dict[str, int]:
        """Flat hierarchical counters for the metric registry.

        Keys name physical elements by topology label —
        ``link.(1,1)->(1,2).transits`` and ``switch.(1,1).deflections``
        on a grid, ``link.(io)->(c1:0,0).transits`` on a chiplet system.
        Only elements that have moved appear, keeping sample rows sparse.
        """
        spatial = self._spatial
        if spatial is None:
            return {}
        topo = self.topology
        label_of = topo.label_of
        neighbor_table = topo.neighbor_table
        values: dict[str, int] = {}
        for receiver in range(topo.n_nodes):
            here = label_of(receiver)
            transits = spatial.link_transits[receiver]
            for in_dir in range(topo.max_ports):
                src = neighbor_table[receiver][in_dir]
                if transits[in_dir] and src >= 0:
                    values[
                        f"link.({label_of(src)})->({here}).transits"
                    ] = transits[in_dir]
            if spatial.switch_deflections[receiver]:
                values[f"switch.({here}).deflections"] = (
                    spatial.switch_deflections[receiver]
                )
            if spatial.node_ejects[receiver]:
                values[f"switch.({here}).ejects"] = (
                    spatial.node_ejects[receiver]
                )
            stalled = self.ports[receiver].inject.stalled_cycles
            if stalled:
                values[f"switch.({here}).inject_stalls"] = stalled
        return values

    def spatial_dict(self) -> dict | None:
        """Matrix-shaped JSON dump of the spatial view (None when off).

        Matrices are row-major ``[y][x]``; links are listed with explicit
        src/dst coordinates so torus wrap links need no special casing.
        """
        spatial = self._spatial
        if spatial is None:
            return None
        topo = self.topology
        coords_of = topo.coords_of
        neighbor_table = topo.neighbor_table
        width, height = topo.width, topo.height

        def matrix(per_node: list[int]) -> list[list[int]]:
            rows = [[0] * width for __ in range(height)]
            for node, value in enumerate(per_node):
                x, y = coords_of(node)
                rows[y][x] = value
            return rows

        panels = topo.spatial_panels()
        links = []
        for receiver in range(topo.n_nodes):
            for in_dir in range(topo.max_ports):
                count = spatial.link_transits[receiver][in_dir]
                src = neighbor_table[receiver][in_dir]
                if count and src >= 0:
                    link = {
                        "src": list(coords_of(src)),
                        "dst": list(coords_of(receiver)),
                        "transits": count,
                    }
                    if panels is not None:
                        link["src_node"] = src
                        link["dst_node"] = receiver
                    links.append(link)
        result = {
            "width": width,
            "height": height,
            "links": links,
            "deflections": matrix(spatial.switch_deflections),
            "ejects": matrix(spatial.node_ejects),
            "inject_stalls": matrix(
                [port.inject.stalled_cycles for port in self.ports]
            ),
            "injected": matrix(
                [port.inject.injected for port in self.ports]
            ),
        }
        if panels is not None:
            # Hierarchical topologies render as per-chiplet panels; the
            # flat matrices above remain for schema compatibility (one
            # row of n_nodes values on a chiplet system).
            result["panels"] = panels
            result["labels"] = [
                topo.label_of(node) for node in range(topo.n_nodes)
            ]
        return result

    # -- introspection -------------------------------------------------------------

    @property
    def flits_in_network(self) -> int:
        return self._flit_count
