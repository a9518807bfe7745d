"""Topology invariants as property sweeps across shapes.

The routing-layer refactor replaced the grids' closed-form X-Y tables
with generic BFS construction; these properties pin the contract every
:class:`Topology` must satisfy — and, on the grids, that the generic
builder reproduces the historical closed-form tables bit-exactly:

* hop-table symmetry (``hops(a, b) == hops(b, a)`` on symmetric links);
* neighbor/ports consistency (link symmetry through ``reverse_port``,
  ``ports_table``/``port_mask_table`` agreeing with ``neighbor_table``);
* BFS-vs-closed-form equality for hop distances *and* productive-port
  preference order on mesh and folded torus across widths 2..6;
* productive progress: every preferred hop strictly reduces the BFS
  hop distance to the destination, on every topology kind including
  the hierarchical chiplet package.
"""

from __future__ import annotations

import pytest

from repro.noc.coords import EAST, NORTH, SOUTH, WEST
from repro.noc.topology import (
    GATEWAY_PORT,
    ChipletTopology,
    FoldedTorusTopology,
    MeshTopology,
)

GRID_SHAPES = [
    (width, height)
    for width in range(2, 7)
    for height in range(2, 7)
]

CHIPLET_SHAPES = [
    (1, 2, 2),
    (2, 2, 2),
    (4, 2, 2),
    (2, 3, 2),
    (4, 4, 4),
]


def grid_topologies(width, height):
    return [MeshTopology(width, height), FoldedTorusTopology(width, height)]


def all_topologies():
    cases = []
    for width, height in [(2, 2), (3, 3), (4, 3), (6, 6)]:
        cases.extend(grid_topologies(width, height))
    for chiplets, width, height in CHIPLET_SHAPES:
        cases.append(ChipletTopology(chiplets, width, height))
    return cases


@pytest.fixture(params=all_topologies(), ids=lambda t: f"{t.kind}{t.n_nodes}")
def topo(request):
    return request.param


# -- generic graph contract --------------------------------------------------


def test_hop_table_is_symmetric(topo):
    n = topo.n_nodes
    for src in range(n):
        for dst in range(n):
            assert topo.hop_table[src * n + dst] == topo.hop_table[
                dst * n + src
            ], f"hops({src},{dst}) asymmetric on {topo.kind}"


def test_links_are_symmetric_through_reverse_ports(topo):
    for node in range(topo.n_nodes):
        for port in range(topo.max_ports):
            neighbor = topo.neighbor_table[node][port]
            if neighbor < 0:
                continue
            reverse = topo.reverse_port_table[node][port]
            assert topo.neighbor_table[neighbor][reverse] == node
            assert topo.reverse_port_table[neighbor][reverse] == port


def test_ports_tables_agree_with_neighbors(topo):
    for node in range(topo.n_nodes):
        attached = tuple(
            port for port in range(topo.max_ports)
            if topo.neighbor_table[node][port] >= 0
        )
        assert topo.ports_table[node] == attached
        assert topo.port_mask_table[node] == sum(
            1 << port for port in attached
        )


def test_every_pair_is_reachable(topo):
    n = topo.n_nodes
    for src in range(n):
        for dst in range(n):
            hops = topo.hop_table[src * n + dst]
            assert (hops == 0) == (src == dst)
            assert hops >= 0, f"{topo.kind}: {src}->{dst} unreachable"


def test_productive_ports_strictly_reduce_hop_distance(topo):
    n = topo.n_nodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                assert topo.productive_table[src * n + dst] == ()
                continue
            here = topo.hop_table[src * n + dst]
            ports = topo.productive_table[src * n + dst]
            assert ports, f"{topo.kind}: no productive port {src}->{dst}"
            for port in ports:
                neighbor = topo.neighbor_table[src][port]
                assert neighbor >= 0
                assert topo.hop_table[neighbor * n + dst] == here - 1, (
                    f"{topo.kind}: port {port} of {src} does not make "
                    f"progress toward {dst}"
                )


def test_neighbors_are_one_hop_apart(topo):
    n = topo.n_nodes
    for node in range(n):
        for port in topo.ports_table[node]:
            neighbor = topo.neighbor_table[node][port]
            assert topo.hop_table[node * n + neighbor] == 1


# -- BFS vs the historical closed-form grid tables ---------------------------
#
# The closed forms are this test's oracle and nothing else's, so they live
# here (moved unchanged out of noc/topology.py, methods -> functions of a
# topology), keyed by topology kind.


def signed_wrap_delta(src: int, dst: int, size: int) -> int:
    """Shortest signed displacement from ``src`` to ``dst`` on a ring.

    The result lies in ``[-size//2, size//2]``; for even ``size`` the
    positive direction is chosen on an exact tie (deterministic).
    """
    delta = (dst - src) % size
    if delta > size // 2:
        delta -= size
    return delta


def _torus_deltas(topo, src: int, dst: int) -> tuple[int, int]:
    sx, sy = topo.coords_of(src)
    dx_, dy_ = topo.coords_of(dst)
    return (
        signed_wrap_delta(sx, dx_, topo.width),
        signed_wrap_delta(sy, dy_, topo.height),
    )


def _torus_productive(topo, src: int, dst: int) -> tuple[int, ...]:
    dx, dy = _torus_deltas(topo, src, dst)
    prefs: list[tuple[int, int]] = []  # (-remaining, direction)
    if dx > 0:
        prefs.append((-dx, EAST))
    elif dx < 0:
        prefs.append((dx, WEST))
    if dy > 0:
        prefs.append((-dy, SOUTH))
    elif dy < 0:
        prefs.append((dy, NORTH))
    # Longest remaining dimension first; direction index breaks ties.
    prefs.sort()
    return tuple(direction for _, direction in prefs)


def _torus_hops(topo, src: int, dst: int) -> int:
    dx, dy = _torus_deltas(topo, src, dst)
    return abs(dx) + abs(dy)


def _mesh_productive(topo, src: int, dst: int) -> tuple[int, ...]:
    sx, sy = topo.coords_of(src)
    dx_, dy_ = topo.coords_of(dst)
    dx = dx_ - sx
    dy = dy_ - sy
    prefs: list[tuple[int, int]] = []
    if dx > 0:
        prefs.append((-dx, EAST))
    elif dx < 0:
        prefs.append((dx, WEST))
    if dy > 0:
        prefs.append((-dy, SOUTH))
    elif dy < 0:
        prefs.append((dy, NORTH))
    prefs.sort()
    return tuple(direction for _, direction in prefs)


def _mesh_hops(topo, src: int, dst: int) -> int:
    sx, sy = topo.coords_of(src)
    dx_, dy_ = topo.coords_of(dst)
    return abs(dx_ - sx) + abs(dy_ - sy)


CLOSED_FORM = {
    "mesh": (MeshTopology, _mesh_hops, _mesh_productive),
    "folded_torus": (FoldedTorusTopology, _torus_hops, _torus_productive),
}


@pytest.mark.parametrize("width,height", GRID_SHAPES)
@pytest.mark.parametrize("kind", ["mesh", "folded_torus"])
def test_bfs_tables_match_closed_form_on_grids(kind, width, height):
    cls, closed_form_hops, closed_form_productive = CLOSED_FORM[kind]
    topo = cls(width, height)
    n = topo.n_nodes
    for src in range(n):
        for dst in range(n):
            assert topo.hop_table[src * n + dst] == closed_form_hops(
                topo, src, dst
            ), f"{kind} {width}x{height}: hops({src},{dst})"
            assert topo.productive_table[
                src * n + dst
            ] == closed_form_productive(topo, src, dst), (
                f"{kind} {width}x{height}: preference order ({src},{dst})"
            )


# -- the chiplet package's structure -----------------------------------------


def test_chiplet_hub_port_c_reaches_gateway_c():
    topo = ChipletTopology(4, 2, 2)
    for chiplet in range(4):
        gateway = topo.gateway_of(chiplet)
        assert topo.neighbor_table[topo.hub_node][chiplet] == gateway
        assert topo.neighbor_table[gateway][GATEWAY_PORT] == topo.hub_node


def test_chiplet_hop_distance_decomposes_through_the_hub():
    # Cross-chiplet distance = to-gateway + uplink + downlink + from-gateway.
    topo = ChipletTopology(3, 3, 2)
    n = topo.n_nodes
    for src in topo.chiplet_members(0):
        for dst in topo.chiplet_members(2):
            via_hub = (
                topo.hop_table[src * n + topo.gateway_of(0)]
                + 2
                + topo.hop_table[topo.gateway_of(2) * n + dst]
            )
            assert topo.hop_table[src * n + dst] == via_hub


def test_chiplet_labels_and_groups_are_consistent():
    topo = ChipletTopology(2, 3, 2)
    assert topo.label_of(topo.hub_node) == "io"
    seen = set()
    for chiplet, members in enumerate(topo.chiplet_groups()):
        assert members == topo.chiplet_members(chiplet)
        for node in members:
            x, y = topo.local_coords_of(node)
            assert topo.label_of(node) == f"c{chiplet}:{x},{y}"
            assert topo.chiplet_node(chiplet, x, y) == node
            seen.add(node)
    assert seen == set(range(1, topo.n_nodes))


def test_chiplet_split_slack_is_exact():
    # The grids keep one spare port before splitting an extra multicast
    # branch; on the chiplet package the two-port hub makes any slack a
    # livelock (the remote branch could never split off), so replication
    # must use the exact younger-flit reserve.
    assert MeshTopology(4, 4).mcast_split_slack == 1
    assert FoldedTorusTopology(4, 4).mcast_split_slack == 1
    assert ChipletTopology(2, 2, 2).mcast_split_slack == 0
