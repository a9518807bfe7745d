"""Network topologies: a general link-graph contract plus the grids.

MEDEA uses a 2-D *folded* torus.  Folding is a physical-design trick: the
ring in each dimension is laid out so every link spans at most two tiles,
equalizing wire length.  Logically a folded torus is identical to a torus,
so the model here is a torus with uniform single-cycle links — which is
precisely what folding buys the physical implementation.

A mesh (no wraparound) is provided for ablation studies; deflection routing
still works there because a switch never has more input links than output
links.

Beyond the single grid, :class:`Topology` is now a general symmetric link
graph: every node exposes numbered *ports* (a grid's ports are its four
compass directions), each carrying an optional link ``(neighbor,
reverse_port, latency, serialization)``.  All routing tables — neighbors,
hop distances, productive-direction preferences, per-port masks — are
built from that graph by breadth-first search rather than closed-form X-Y
arithmetic, so any connected graph routes (the property tests pin the BFS
tables bit-identical to the old closed forms on every grid).
:class:`ChipletTopology` uses the generality: N compute-chiplet meshes
around a central IO chiplet with configurable (slower/narrower)
inter-chiplet links, in the style of AMD Zen3 packages — the ROADMAP
item-3 target of hundreds of tiles.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigError
from repro.noc.coords import (
    ALL_DIRECTIONS,
    DELTA_X,
    DELTA_Y,
    EAST,
    NORTH,
    OPPOSITE,
    SOUTH,
    WEST,
)

#: Port slot used by a chiplet gateway tile for its uplink to the IO hub
#: (slots 0-3 are the intra-chiplet compass directions).
GATEWAY_PORT = 4


class Topology:
    """A symmetric link graph of switch nodes with numbered ports.

    Sub-classes declare connectivity through :meth:`_build_links` — per
    node, a list of port slots, each ``None`` (no link) or a tuple
    ``(neighbor, reverse_port, latency, serialization)`` where
    ``reverse_port`` is the input port on the neighbor that this node's
    output wire feeds, ``latency`` is the link's flight time in cycles
    (1 on-die) and ``serialization`` the cycles each flit occupies the
    wire (1 = full width).  Links must be declared symmetrically: if
    ``a`` reaches ``b`` through port ``p`` with reverse ``q``, then
    ``b``'s slot ``q`` must name ``a`` with reverse ``p``.

    Every routing table is precomputed here because it sits on the
    router's per-flit hot path:

    * ``neighbor_table[node][port]`` — neighbor index or -1;
    * ``reverse_port_table[node][port]`` — the receiving input port
      (a grid's ``OPPOSITE``, generalized);
    * ``hop_table[src * n + dst]`` — BFS hop distance;
    * ``productive_table[src * n + dst]`` — ports that strictly reduce
      hop distance, ordered by :meth:`_productive_ports` (longest
      straight run first, port index as the tie-break — exactly the old
      closed-form "longest dimension first" preference on the grids);
    * ``ports_table`` / ``port_mask_table`` — attached ports per node.

    ``width``/``height`` describe the coordinate plane used for the wire
    format and spatial views; a non-grid topology sets ``width = n_nodes,
    height = 1`` and overrides :meth:`label_of` for human-readable names.
    """

    #: Topology family name, used in diagnostics (sub-classes override).
    kind = "graph"

    #: Spare output ports the multicast router keeps free beyond the
    #: younger-flit reserve before splitting an extra replication branch
    #: (see ``_place_multicast``).  The grids keep one spare so local
    #: injection is not starved by replication bursts — the tuning the
    #: committed goldens were measured with.  A topology with low-degree
    #: hub nodes must set this to 0: on a two-port IO hub any slack means
    #: the remote branch can never split off and the flit livelocks.
    mcast_split_slack = 1

    def __init__(
        self, width: int, height: int, n_nodes: int | None = None
    ) -> None:
        self.width = width
        self.height = height
        self.n_nodes = width * height if n_nodes is None else n_nodes
        links = self._build_links()
        if len(links) != self.n_nodes:
            raise ConfigError(
                f"{self.kind} topology declared {len(links)} link rows "
                f"for {self.n_nodes} nodes"
            )
        self.max_ports = max((len(row) for row in links), default=1) or 1
        for row in links:
            row.extend([None] * (self.max_ports - len(row)))
        self.link_table: list[list[tuple | None]] = links
        self.neighbor_table: list[list[int]] = [
            [(-1 if link is None else link[0]) for link in row]
            for row in links
        ]
        self.reverse_port_table: list[list[int]] = [
            [(-1 if link is None else link[1]) for link in row]
            for row in links
        ]
        self.link_latency_table: list[list[int]] = [
            [(0 if link is None else link[2]) for link in row]
            for row in links
        ]
        self.link_ser_table: list[list[int]] = [
            [(0 if link is None else link[3]) for link in row]
            for row in links
        ]
        self._check_symmetry()
        #: True when every link is single-cycle and full-width — the
        #: fabric's fast path (no delay queue, no wire occupancy).
        self.uniform_links = all(
            link is None or (link[2] == 1 and link[3] == 1)
            for row in links for link in row
        )
        # ports_table[node] -> ports with an attached link, ascending;
        # port_mask_table[node] -> the same set as a bitmask over ports.
        self.ports_table: list[tuple[int, ...]] = [
            tuple(
                port for port in range(self.max_ports)
                if self.neighbor_table[node][port] >= 0
            )
            for node in range(self.n_nodes)
        ]
        self.port_mask_table: list[int] = [
            sum(1 << port for port in ports) for ports in self.ports_table
        ]
        # hop_table[src * n + dst] -> BFS hop distance (-1 = unreachable);
        # productive_table[src * n + dst] -> tuple of preferred ports.
        # One BFS per destination feeds both.
        self.hop_table: list[int] = [0] * (self.n_nodes * self.n_nodes)
        self.productive_table: list[tuple[int, ...]] = (
            self._build_productive(killed=None, hop_table=self.hop_table)
        )
        #: Multicast branch plans derived from ``productive_table`` (never
        #: rebuilt, so never stale), filled on demand by the router — see
        #: :mod:`repro.noc.switch`.
        self.mcast_plans: dict[int, tuple] = {}
        # Lazy per-source latency-weighted distance tables (path_latencies).
        self._latency_dist: dict[int, list[int]] = {}
        #: Per-tile credit plans, keyed ``(node, cap)`` and filled by
        #: ``MedeaSystem._credit_plan`` — a function of the link latencies
        #: alone, so it is kept where they are.
        self.credit_plans: dict[tuple[int, int], dict[int, int]] = {}

    # -- graph construction hooks -------------------------------------------

    def _build_links(self) -> list[list[tuple | None]]:
        """Per-node port slots: ``(neighbor, reverse_port, latency, ser)``."""
        raise NotImplementedError

    def _productive_pairs(self) -> tuple[tuple[int, int], ...]:
        """Opposite-port pairs ``(keep, drop)`` for preference pruning.

        When *both* ports of a pair strictly reduce hop distance (an
        even-size torus ring tie, or a two-wide ring's double link), the
        ``drop`` port is removed from the candidate list — reproducing
        the positive-direction tie rule of the closed-form reference
        (``signed_wrap_delta``, ``tests/noc/test_topology_properties.py``).
        Non-grid topologies usually need no pruning.
        """
        return ()

    def _check_symmetry(self) -> None:
        for node, row in enumerate(self.link_table):
            for port, link in enumerate(row):
                if link is None:
                    continue
                neighbor, back, latency, ser = link
                if latency < 1 or ser < 1:
                    raise ConfigError(
                        f"{self.kind} link {node}:p{port} has latency "
                        f"{latency}, serialization {ser}; both must be >= 1"
                    )
                mirror = self.link_table[neighbor][back]
                if mirror is None or mirror[0] != node or mirror[1] != port:
                    raise ConfigError(
                        f"{self.kind} link {node}:p{port}->{neighbor} has "
                        f"no symmetric reverse at {neighbor}:p{back}"
                    )

    # -- BFS table construction ---------------------------------------------

    def _bfs_distances(
        self, dst: int, killed: list[int] | None = None
    ) -> list[int]:
        """Hop distances to ``dst`` over the (surviving) links."""
        neighbor = self.neighbor_table
        ports = self.ports_table
        dist = [-1] * self.n_nodes
        dist[dst] = 0
        frontier = [dst]
        while frontier:
            nxt = []
            for u in frontier:
                row = neighbor[u]
                dead = killed[u] if killed is not None else 0
                for port in ports[u]:
                    if dead >> port & 1:
                        continue
                    v = row[port]
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def _straight_run(
        self, src: int, port: int, dist: list[int],
        killed: list[int] | None,
    ) -> int:
        """Consecutive same-port hops from ``src`` that each cut distance.

        On a grid this is the remaining displacement along the port's
        dimension — the quantity the old closed form sorted preferences
        by ("longest dimension first").
        """
        neighbor = self.neighbor_table
        node, remaining, run = src, dist[src], 0
        while True:
            if killed is not None and killed[node] >> port & 1:
                break
            nxt = (
                neighbor[node][port] if port < len(neighbor[node]) else -1
            )
            if nxt < 0 or dist[nxt] != remaining - 1:
                break
            run += 1
            node, remaining = nxt, remaining - 1
            if remaining == 0:
                break
        return run

    def _productive_ports(
        self, src: int, dist: list[int], killed: list[int] | None
    ) -> tuple[int, ...]:
        """Preferred ports out of ``src`` toward the BFS field's root."""
        neighbor = self.neighbor_table
        dead = killed[src] if killed is not None else 0
        here = dist[src]
        candidates = [
            port for port in self.ports_table[src]
            if not (dead >> port & 1)
            and 0 <= dist[neighbor[src][port]] < here
        ]
        if len(candidates) > 1:
            for keep, drop in self._productive_pairs():
                if keep in candidates and drop in candidates:
                    candidates.remove(drop)
            candidates.sort(
                key=lambda port: (
                    -self._straight_run(src, port, dist, killed), port
                )
            )
        return tuple(candidates)

    def _build_productive(
        self, killed: list[int] | None, hop_table: list[int] | None = None
    ) -> list[tuple[int, ...]]:
        n = self.n_nodes
        table: list[tuple[int, ...]] = [()] * (n * n)
        # A few dozen distinct tuples fill the n * n slots: keep one of each.
        unique: dict[tuple[int, ...], tuple[int, ...]] = {}
        for dst in range(n):
            dist = self._bfs_distances(dst, killed)
            if hop_table is not None:
                hop_table[dst::n] = dist  # the dst column
            for src in range(n):
                if src == dst or dist[src] < 0:
                    continue
                ports = self._productive_ports(src, dist, killed)
                table[src * n + dst] = unique.setdefault(ports, ports)
        return table

    def productive_override(self, killed: list[int]) -> list[tuple[int, ...]]:
        """Rebuild the productive table on the surviving (unkilled) graph.

        ``killed[node]`` is a bitmask of dead output ports.  A real
        fault-tolerant NoC reprograms its routing tables when a link
        dies; this is the model's equivalent, built by the same BFS the
        pristine tables use, so rerouting is topology-derived everywhere
        (mesh, torus, or chiplet).  An unreachable destination gets an
        empty tuple: such flits deflect until the watchdog reports the
        partition.
        """
        return self._build_productive(killed)

    # -- coordinates ---------------------------------------------------------

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigError(
                f"({x},{y}) outside {self.width}x{self.height} "
                f"{self.kind} coordinate plane"
            )
        return y * self.width + x

    def coords_of(self, node: int) -> tuple[int, int]:
        return node % self.width, node // self.width

    def label_of(self, node: int) -> str:
        """Human label for spatial views and stall attribution."""
        x, y = self.coords_of(node)
        return f"{x},{y}"

    # -- fast accessors --------------------------------------------------------

    def neighbor(self, node: int, port: int) -> int:
        """Neighbor index through ``port`` or -1 when the link is absent."""
        return self.neighbor_table[node][port]

    def productive_directions(self, src: int, dst: int) -> tuple[int, ...]:
        """Ports that reduce hop distance, longest straight run first."""
        return self.productive_table[src * self.n_nodes + dst]

    def hop_distance(self, src: int, dst: int) -> int:
        return self.hop_table[src * self.n_nodes + dst]

    def ports_of(self, node: int) -> tuple[int, ...]:
        """Ports with an attached link (all four on a torus)."""
        return self.ports_table[node]

    def link_latency(self, node: int, port: int) -> int:
        return self.link_latency_table[node][port]

    def path_latencies(self, src: int) -> list[int]:
        """Minimum cumulative link latency from ``src`` to every node.

        On uniform topologies this is the hop distance; with slow
        inter-chiplet links it is the latency-weighted shortest path
        (Dijkstra over per-link latencies) — what a credit planner needs
        to cover a round trip.  Tables are built lazily per source and
        cached.
        """
        table = self._latency_dist.get(src)
        if table is None:
            if self.uniform_links:
                base = src * self.n_nodes
                table = self.hop_table[base:base + self.n_nodes]
            else:
                import heapq

                table = [None] * self.n_nodes
                heap = [(0, src)]
                while heap:
                    dist, node = heapq.heappop(heap)
                    if table[node] is not None:
                        continue
                    table[node] = dist
                    row = self.link_table[node]
                    for port, slot in enumerate(row):
                        if slot is None:
                            continue
                        neighbor = slot[0]
                        if table[neighbor] is None:
                            heapq.heappush(
                                heap,
                                (dist + self.link_latency_table[node][port],
                                 neighbor),
                            )
            self._latency_dist[src] = table
        return table

    def port_name(self, node: int, port: int) -> str:
        """Human name for an output port (compass letter on grids)."""
        del node
        from repro.noc.coords import DIRECTION_NAMES
        if 0 <= port < len(DIRECTION_NAMES):
            return DIRECTION_NAMES[port]
        return f"p{port}"

    # -- hierarchy ------------------------------------------------------------

    def chiplet_of(self, node: int) -> int:
        """Compute-chiplet index of ``node`` (-1 = not on one; flat
        topologies place every node on chiplet -1)."""
        del node
        return -1

    def chiplet_groups(self) -> list[list[int]] | None:
        """Node groups per compute chiplet, or None on a flat topology."""
        return None

    def spatial_panels(self) -> list[dict] | None:
        """Per-chiplet render panels for the spatial heatmaps, or None
        when the whole topology is one grid (the legacy view)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.width}x{self.height}>"


class GridTopology(Topology):
    """Shared machinery of the 2-D grids: four compass ports per node.

    Port indices equal the direction constants of
    :mod:`repro.noc.coords`, so ``reverse_port`` is ``OPPOSITE`` and the
    generic tables line up with the historical direction-indexed ones
    (``tests/noc/test_topology_properties.py`` keeps the closed-form
    preference/hop reference the BFS tables are compared against).
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 2 or height < 1:
            raise ConfigError(
                f"{self.kind} topology needs width>=2, height>=1, "
                f"got {width}x{height}"
            )
        super().__init__(width, height)

    def _build_links(self) -> list[list[tuple | None]]:
        rows: list[list[tuple | None]] = []
        for node in range(self.width * self.height):
            row: list[tuple | None] = []
            for direction in ALL_DIRECTIONS:
                neighbor = self._neighbor_of(node, direction)
                row.append(
                    None if neighbor < 0
                    else (neighbor, OPPOSITE[direction], 1, 1)
                )
            rows.append(row)
        return rows

    def _productive_pairs(self) -> tuple[tuple[int, int], ...]:
        # The closed-form reference resolves an even-ring tie to the
        # positive displacement: EAST over WEST, SOUTH over NORTH.
        return ((EAST, WEST), (SOUTH, NORTH))

    # -- construction hooks --------------------------------------------------

    def _neighbor_of(self, node: int, direction: int) -> int:
        raise NotImplementedError


class FoldedTorusTopology(GridTopology):
    """2-D folded torus: wraparound links, uniform 1-cycle hop latency."""

    kind = "folded_torus"

    def _neighbor_of(self, node: int, direction: int) -> int:
        x, y = self.coords_of(node)
        nx = (x + DELTA_X[direction]) % self.width
        ny = (y + DELTA_Y[direction]) % self.height
        return ny * self.width + nx


class MeshTopology(GridTopology):
    """2-D mesh without wraparound, for comparison experiments."""

    kind = "mesh"

    def _neighbor_of(self, node: int, direction: int) -> int:
        x, y = self.coords_of(node)
        nx = x + DELTA_X[direction]
        ny = y + DELTA_Y[direction]
        if not (0 <= nx < self.width and 0 <= ny < self.height):
            return -1
        return ny * self.width + nx


class ChipletTopology(Topology):
    """N compute-chiplet meshes around one central IO chiplet.

    The AMD-Zen3-style package of ROADMAP item 3: node 0 is the IO hub
    (the MPMMU lives there, next to the memory controller, exactly where
    the real IO die puts it); compute chiplet ``c`` is a
    ``chiplet_width x chiplet_height`` mesh at nodes ``1 + c*w*h ...``
    in local row-major order.  Each chiplet's local tile (0,0) is its
    *gateway*: a fifth port (``GATEWAY_PORT``) connects it to the hub
    over an inter-chiplet link with configurable flight latency and
    serialization (a narrower off-die wire takes several cycles per
    flit).  The hub's port ``c`` is chiplet ``c``'s uplink.

    Intra-chiplet routing, deflection, multicast replication and fault
    rerouting all fall out of the generic BFS tables — nothing in the
    router knows chiplets exist.  The hierarchy *is* visible to the
    layers that want it: :meth:`chiplet_groups` (hierarchical
    collectives), :meth:`label_of` (``c1:2,0`` stall attribution) and
    :meth:`spatial_panels` (per-chiplet heatmaps).
    """

    kind = "chiplet"

    #: The hub has exactly ``n_chiplets`` ports; with the grids' spare-
    #: port slack a multicast flit entering a 2-port hub could never
    #: split its remote-chiplet branch (the merged flit bounces back to
    #: the source chiplet forever), so replication uses the exact
    #: younger-flit reserve here.
    mcast_split_slack = 0

    def __init__(
        self,
        n_chiplets: int,
        chiplet_width: int,
        chiplet_height: int,
        link_latency: int = 4,
        link_serialization: int = 1,
    ) -> None:
        if n_chiplets < 1:
            raise ConfigError(
                f"chiplet topology needs >= 1 compute chiplet, "
                f"got {n_chiplets}"
            )
        if chiplet_width < 1 or chiplet_height < 1:
            raise ConfigError(
                f"chiplet topology needs chiplet dimensions >= 1x1, "
                f"got {chiplet_width}x{chiplet_height}"
            )
        if link_latency < 1 or link_serialization < 1:
            raise ConfigError(
                f"chiplet inter-chiplet links need latency and "
                f"serialization >= 1, got latency={link_latency}, "
                f"serialization={link_serialization}"
            )
        self.n_chiplets = n_chiplets
        self.chiplet_width = chiplet_width
        self.chiplet_height = chiplet_height
        self.tiles_per_chiplet = chiplet_width * chiplet_height
        self.hub_node = 0
        self.inter_link_latency = link_latency
        self.inter_link_serialization = link_serialization
        total = 1 + n_chiplets * self.tiles_per_chiplet
        super().__init__(width=total, height=1, n_nodes=total)

    # -- node numbering -------------------------------------------------------

    def chiplet_of(self, node: int) -> int:
        if node == self.hub_node:
            return -1
        return (node - 1) // self.tiles_per_chiplet

    def local_coords_of(self, node: int) -> tuple[int, int]:
        local = (node - 1) % self.tiles_per_chiplet
        return local % self.chiplet_width, local // self.chiplet_width

    def chiplet_node(self, chiplet: int, x: int, y: int) -> int:
        if not (0 <= chiplet < self.n_chiplets):
            raise ConfigError(
                f"chiplet index {chiplet} outside 0..{self.n_chiplets - 1}"
            )
        if not (0 <= x < self.chiplet_width and 0 <= y < self.chiplet_height):
            raise ConfigError(
                f"({x},{y}) outside the {self.chiplet_width}x"
                f"{self.chiplet_height} chiplet mesh"
            )
        return 1 + chiplet * self.tiles_per_chiplet + y * self.chiplet_width + x

    def gateway_of(self, chiplet: int) -> int:
        """The tile carrying chiplet ``chiplet``'s uplink (local (0,0))."""
        return self.chiplet_node(chiplet, 0, 0)

    def chiplet_members(self, chiplet: int) -> list[int]:
        base = 1 + chiplet * self.tiles_per_chiplet
        return list(range(base, base + self.tiles_per_chiplet))

    def chiplet_groups(self) -> list[list[int]]:
        return [
            self.chiplet_members(chiplet)
            for chiplet in range(self.n_chiplets)
        ]

    def label_of(self, node: int) -> str:
        if node == self.hub_node:
            return "io"
        x, y = self.local_coords_of(node)
        return f"c{self.chiplet_of(node)}:{x},{y}"

    def port_name(self, node: int, port: int) -> str:
        if node == self.hub_node:
            return f"c{port}"
        if port == GATEWAY_PORT:
            return "IO"
        return super().port_name(node, port)

    # -- graph construction ---------------------------------------------------

    def _build_links(self) -> list[list[tuple | None]]:
        lat = self.inter_link_latency
        ser = self.inter_link_serialization
        rows: list[list[tuple | None]] = [
            [
                (self.gateway_of(chiplet), GATEWAY_PORT, lat, ser)
                for chiplet in range(self.n_chiplets)
            ]
        ]
        for node in range(1, self.n_nodes):
            chiplet = self.chiplet_of(node)
            x, y = self.local_coords_of(node)
            row: list[tuple | None] = []
            for direction in ALL_DIRECTIONS:
                nx = x + DELTA_X[direction]
                ny = y + DELTA_Y[direction]
                if (0 <= nx < self.chiplet_width
                        and 0 <= ny < self.chiplet_height):
                    row.append((
                        self.chiplet_node(chiplet, nx, ny),
                        OPPOSITE[direction], 1, 1,
                    ))
                else:
                    row.append(None)
            if (x, y) == (0, 0):
                row.append((self.hub_node, chiplet, lat, ser))
            rows.append(row)
        return rows

    def _productive_pairs(self) -> tuple[tuple[int, int], ...]:
        # Chiplet meshes have no wraparound, so no even-ring ties exist;
        # the grid pairs are kept for the (unreachable) safety of it.
        return ((EAST, WEST), (SOUTH, NORTH))

    # -- spatial views --------------------------------------------------------

    def spatial_panels(self) -> list[dict]:
        panels = [{
            "name": "io",
            "width": 1,
            "height": 1,
            "nodes": [[self.hub_node]],
        }]
        for chiplet in range(self.n_chiplets):
            panels.append({
                "name": f"chiplet {chiplet}",
                "width": self.chiplet_width,
                "height": self.chiplet_height,
                "nodes": [
                    [
                        self.chiplet_node(chiplet, x, y)
                        for x in range(self.chiplet_width)
                    ]
                    for y in range(self.chiplet_height)
                ],
            })
        return panels

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ChipletTopology {self.n_chiplets}x"
            f"({self.chiplet_width}x{self.chiplet_height})+io>"
        )


def _near_square(tiles: int, min_width: int) -> tuple[int, int]:
    """(width, height) holding ``tiles``: least waste, then nearest to
    square, the narrowest of equals."""
    return min(
        ((width, -(-tiles // width)) for width in range(min_width, tiles + 1)),
        key=lambda grid: (grid[0] * grid[1] - tiles, abs(grid[0] - grid[1])),
    )


def grid_for_nodes(n_nodes: int, kind: str = "folded_torus") -> tuple[int, int]:
    """Smallest (width, height) grid with at least ``n_nodes`` tiles.

    Prefers near-square aspect ratios, matching how the paper scales the
    network from 3 to 16 cores (up to a 4x4 folded torus).  ``kind``
    names the topology being built so an impossible request is diagnosed
    with its context.
    """
    if n_nodes < 2:
        raise ConfigError(
            f"a {kind} grid needs at least 2 nodes (one worker plus the "
            f"MPMMU), got {n_nodes}"
        )
    return _near_square(n_nodes, min_width=2)


def chiplet_grid_for(n_workers: int, n_chiplets: int) -> tuple[int, int]:
    """Smallest near-square per-chiplet mesh holding the workers' share."""
    if n_chiplets < 1:
        raise ConfigError(
            f"a chiplet topology needs >= 1 compute chiplet, "
            f"got {n_chiplets}"
        )
    per_chiplet = max(1, -(-n_workers // n_chiplets))
    return _near_square(per_chiplet, min_width=1)


#: Distinct topologies :func:`build_topology` keeps (least recently used
#: goes first): the paper's sweep has 14, one per core count, 20 kB each.
#: A 256-tile one holds 1.3 MB of tables (torus; chiplet 1.9 MB plus
#: 2.4 MB of credit plans) and at worst 12 MB of multicast plans
#: (``PLAN_TABLE_LIMIT`` random masks): 16 of those are 70 MB of tables,
#: 230 MB with every plan table full.
TOPOLOGY_CACHE_SIZE = 16


@lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def build_topology(
    kind: str,
    n_nodes: int,
    grid: tuple[int, int] | None = None,
    chiplets: int = 4,
    chiplet_grid: tuple[int, int] | None = None,
    chiplet_link_latency: int = 4,
    chiplet_link_width: int = 1,
) -> Topology:
    """Construct the topology for one system (the single factory).

    ``n_nodes`` counts every NoC endpoint (workers + MPMMU).  For the
    grids, ``grid`` overrides the near-square fit; for ``"chiplet"``,
    ``chiplet_grid`` sizes each compute mesh (default: smallest
    near-square fit of the workers split across ``chiplets``) and the
    IO hub is node 0.  ``chiplet_link_width`` is the inter-chiplet
    serialization factor: ``2`` halves the off-die wire width, so every
    flit occupies it for two cycles.

    **The result is shared.**  A topology is a pure function of these
    (hashable) arguments and nothing in ``src/`` writes to one after it
    is built, so every system of one description in a process gets the
    same object — tables, multicast plans and credit plans computed
    once.  Never write to it; construct :class:`MeshTopology`,
    :class:`FoldedTorusTopology` or :class:`ChipletTopology` directly
    (they are not cached) to hand-edit a table.
    """
    if kind == "chiplet":
        n_workers = n_nodes - 1
        if chiplet_grid is None:
            chiplet_grid = chiplet_grid_for(n_workers, chiplets)
        width, height = chiplet_grid
        topology = ChipletTopology(
            chiplets, width, height,
            link_latency=chiplet_link_latency,
            link_serialization=chiplet_link_width,
        )
        if topology.n_nodes < n_nodes:
            raise ConfigError(
                f"chiplet topology ({chiplets} chiplets of {width}x{height} "
                f"plus the IO hub = {topology.n_nodes} tiles) too small for "
                f"{n_nodes} nodes; grow chiplets or chiplet_grid"
            )
        return topology
    if kind not in ("folded_torus", "mesh"):
        raise ConfigError(
            f"unknown topology kind {kind!r}; "
            f"use 'folded_torus', 'mesh' or 'chiplet'"
        )
    width, height = grid or grid_for_nodes(n_nodes, kind)
    if width * height < n_nodes:
        raise ConfigError(
            f"{kind} grid {width}x{height} ({width * height} tiles) too "
            f"small for {n_nodes} nodes"
        )
    if kind == "mesh":
        return MeshTopology(width, height)
    return FoldedTorusTopology(width, height)
