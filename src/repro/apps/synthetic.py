"""Synthetic NoC traffic: characterize the deflection-routed fabric alone.

The paper's Section II-A claims rest on the authors' earlier trace-driven
NoC study (ref [15]): deflection routing delivers everything, with only
sporadic high-latency outliers and no livelock in practice.  This module
reproduces that style of experiment: Bernoulli sources inject single-flit
packets under uniform-random, hotspot, transpose or neighbor patterns
directly into a bare fabric (no PEs, no memory system), and the fabric's
latency statistics answer the latency/throughput/outlier questions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigError, ProtocolError
from repro.kernel.component import Component
from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.topology import FoldedTorusTopology, MeshTopology, Topology

PATTERNS = ("uniform", "hotspot", "transpose", "neighbor")


@dataclass
class TrafficStats:
    """Outcome of one synthetic-traffic run."""

    offered_rate: float
    cycles: int
    injected: int
    ejected: int
    in_flight: int
    mean_latency: float
    max_latency: int
    p99_latency_bound: int | None
    deflections: int
    deflections_per_flit: float
    injection_stalls: int
    throughput: float  # ejected flits per node per cycle
    per_source_sent: list[int] = field(repr=False, default_factory=list)
    #: Per-link/per-switch matrices (``NocFabric.spatial_dict`` shape);
    #: None unless the run was asked to keep the spatial view.
    spatial: dict | None = field(repr=False, default=None)

    @property
    def all_delivered(self) -> bool:
        return self.injected == self.ejected and self.in_flight == 0


class _TrafficSource(Component):
    """Bernoulli single-flit injector at one node."""

    def __init__(
        self,
        node: int,
        fabric: NocFabric,
        rate: float,
        pattern: str,
        stop_at: int,
        rng: random.Random,
    ) -> None:
        super().__init__(f"src[{node}]")
        self.node = node
        self.fabric = fabric
        self.ports = fabric.ports_of(node)
        self.ports.eject.owner = self
        self.rate = rate
        self.pattern = pattern
        self.stop_at = stop_at
        self.rng = rng
        self.sent = 0
        self.active = True  # sources run from cycle 0

    def _pick_destination(self) -> int:
        topo = self.fabric.topology
        n = topo.n_nodes
        if self.pattern == "uniform":
            dst = self.rng.randrange(n - 1)
            return dst if dst < self.node else dst + 1
        if self.pattern == "hotspot":
            # Half the traffic aims at node 0 (the MPMMU position).
            if self.node != 0 and self.rng.random() < 0.5:
                return 0
            dst = self.rng.randrange(n - 1)
            return dst if dst < self.node else dst + 1
        if self.pattern == "transpose":
            x, y = topo.coords_of(self.node)
            return topo.node_at(y % topo.width, x % topo.height)
        if self.pattern == "neighbor":
            return topo.neighbor_table[self.node][self.rng.randrange(4) % 4] % n
        raise ConfigError(f"unknown pattern {self.pattern!r}")

    def step(self, cycle: int) -> None:
        # Drain anything delivered to us (sink role).
        self.ports.eject.queue.clear()
        if cycle >= self.stop_at:
            if self.fabric.flits_in_network == 0:
                self.sleep()
            return
        if not self.ports.inject.busy and self.rng.random() < self.rate:
            dst = self._pick_destination()
            if dst == self.node or dst < 0:
                return
            flit = Flit(dst=dst, src=self.node, ptype=PacketType.MESSAGE,
                        data=self.sent & 0xFFFF_FFFF)
            if not self.ports.inject.try_inject(flit):
                raise ProtocolError(
                    f"cycle {cycle}: node {self.node}'s injection slot "
                    f"refused {flit!r} while reporting itself free"
                )
            self.sent += 1


def run_synthetic_traffic(
    width: int = 4,
    height: int = 4,
    rate: float = 0.1,
    cycles: int = 2000,
    pattern: str = "uniform",
    topology_kind: str = "folded_torus",
    drain_cycles: int = 2000,
    seed: int = 1,
    spatial: bool = False,
) -> TrafficStats:
    """Inject Bernoulli traffic for ``cycles``, then drain; return stats.

    ``spatial=True`` keeps the fabric's per-link/per-switch telemetry
    matrices and attaches them to the result — the data behind the DSE
    report heatmaps.  (Bookkeeping only; cycle counts are unaffected.)
    """
    if pattern not in PATTERNS:
        raise ConfigError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"injection rate must be in [0, 1], got {rate}")
    topology: Topology
    if topology_kind == "mesh":
        topology = MeshTopology(width, height)
    else:
        topology = FoldedTorusTopology(width, height)
    sim = Simulator()
    fabric = NocFabric(topology)
    if spatial:
        fabric.enable_spatial()
    sim.register(fabric)
    sources = []
    for node in range(topology.n_nodes):
        source = _TrafficSource(
            node, fabric, rate, pattern, stop_at=cycles,
            rng=random.Random(seed * 100_003 + node),
        )
        sim.register(source)
        sources.append(source)
    sim.run(max_cycles=cycles + drain_cycles)

    injected = fabric.stats.get("flits_injected")
    ejected = fabric.stats.get("flits_ejected")
    latency = fabric.latency
    deflections = fabric.stats.get("deflections")
    return TrafficStats(
        offered_rate=rate,
        cycles=cycles,
        injected=injected,
        ejected=ejected,
        in_flight=fabric.flits_in_network,
        mean_latency=latency.mean,
        max_latency=latency.max or 0,
        p99_latency_bound=latency.percentile_bound(0.99),
        deflections=deflections,
        deflections_per_flit=deflections / ejected if ejected else 0.0,
        injection_stalls=fabric.stats.get("injection_stalls"),
        throughput=ejected / (cycles * topology.n_nodes) if cycles else 0.0,
        per_source_sent=[source.sent for source in sources],
        spatial=fabric.spatial_dict(),
    )


@dataclass
class SyntheticParams:
    """One synthetic-traffic point, sweep-service style.

    The params-dataclass face of :func:`run_synthetic_traffic`, so NoC
    characterization sweeps ride the same declarative
    :class:`~repro.dse.space.SweepSpace` + executor machinery (and result
    cache keys) as every architecture sweep.  It holds what a sweep turns;
    the fabric is that function's default 4x4 folded torus.
    """

    rate: float = 0.1
    pattern: str = "uniform"
    cycles: int = 2000
    seed: int = 1


def run_synthetic_point(params: SyntheticParams) -> TrafficStats:
    """Evaluate one :class:`SyntheticParams` point, spatial matrices kept."""
    return run_synthetic_traffic(
        rate=params.rate,
        cycles=params.cycles,
        pattern=params.pattern,
        seed=params.seed,
        spatial=True,
    )
