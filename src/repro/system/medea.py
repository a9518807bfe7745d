"""MedeaSystem: builds and runs one complete architecture instance."""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.bridge.arbiter import NocAccessArbiter
from repro.bridge.pif2noc import AddressLut, Pif2NocBridge
from repro.dma.engine import DmaTxEngine
from repro.cache.l1 import LINE_BYTES, L1Cache, WritePolicy
from repro.empi.requests import OverlapFold
from repro.empi.runtime import Empi
from repro.empi.schedules import Agreement
from repro.errors import ConfigError, MemoryAccessError
from repro.faults import FaultInjector
from repro.kernel.simulator import Simulator
from repro.kernel.watchdog import ProgressWatchdog
from repro.kernel.trace import EventLog
from repro.mem.ddr import DdrModel
from repro.mem.memory_map import MemoryMap
from repro.mem.scratchpad import Scratchpad
from repro.mem.values import words_to_float
from repro.mpmmu.mpmmu import MPMMU_CACHE_KB, MpmmuNode
from repro.noc.network import NocFabric
from repro.noc.topology import build_topology
from repro.pe.processor import ProcessorNode
from repro.pe.program import ProgramContext
from repro.pe.reliability import ReliabilityAgent
from repro.pe.tie import (
    CREDIT_LIMIT,
    CREDIT_WINDOW,
    MAX_SPAN,
    TieInterface,
)
from repro.system.config import SystemConfig
from repro.telemetry.registry import (
    MetricRegistry,
    TelemetrySampler,
    sampled_overlap_efficiency,
)

#: A program factory takes the rank's context and returns its generator.
ProgramFactory = Callable[[ProgramContext], Generator]

#: The MPMMU always occupies NoC node 0; worker rank r sits at node r + 1.
MPMMU_NODE = 0

#: Cycle budget of a :meth:`MedeaSystem.run` that names none.
DEFAULT_MAX_CYCLES = 2_000_000_000


class MedeaSystem:
    """One MEDEA instance: NoC + MPMMU + worker tiles, ready to run programs."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.topology = build_topology(
            config.topology_kind,
            config.n_nodes,
            grid=config.grid,
            chiplets=config.chiplets,
            chiplet_grid=config.chiplet_grid,
            chiplet_link_latency=config.chiplet_link_latency,
            chiplet_link_width=config.chiplet_link_width,
        )
        self.sim = Simulator(report=self.report)
        telemetry_cfg = config.telemetry
        #: The run's one event log (see :mod:`repro.kernel.trace`).
        self.events = EventLog()
        #: The one gate for per-flit/per-descriptor events: the fabric
        #: and the DMA engines are handed the log only when asked to
        #: trace, None otherwise.
        self._hardware_events = (
            self.events
            if config.trace or telemetry_cfg is not None else None
        )
        #: Fault-injection runtime (None when config.faults is None — the
        #: fault-free build carries no hook anywhere on the hot path).
        self.injector = (
            FaultInjector(config.faults, self.topology, self.events)
            if config.faults is not None else None
        )
        self.fabric = NocFabric(
            self.topology,
            eject_capacity=config.eject_width,
            strict_encoding=config.strict_encoding,
            events=self._hardware_events,
            faults=self.injector,
        )
        self.sim.register(self.fabric)

        self.map = MemoryMap(
            config.n_workers,
            shared_size=config.shared_size,
            private_size=config.private_size,
        )
        self.ddr = DdrModel(size_bytes=self.map.total_size)
        self.mpmmu = MpmmuNode(
            self.fabric.ports_of(MPMMU_NODE),
            cache=L1Cache(
                MPMMU_CACHE_KB * 1024,
                policy=WritePolicy.WRITE_BACK,
                name="mpmmu.l1",
            ),
            ddr=self.ddr,
            n_workers=config.n_workers,
        )
        self.sim.register(self.mpmmu)

        self.rank_to_node = {
            rank: rank + 1 for rank in range(config.n_workers)
        }
        #: Rank groups per compute chiplet (None on flat topologies).
        #: Node-order numbering means chiplet 0 fills first; only ranks
        #: that exist appear (trailing switch-only tiles are dropped).
        self.rank_groups: list[list[int]] | None = None
        groups = self.topology.chiplet_groups()
        if groups is not None:
            node_to_rank = {
                node: rank for rank, node in self.rank_to_node.items()
            }
            self.rank_groups = [
                ranks for ranks in (
                    [node_to_rank[m] for m in members if m in node_to_rank]
                    for members in groups
                ) if ranks
            ]
        self.nodes: list[ProcessorNode] = []
        for rank in range(config.n_workers):
            self.nodes.append(self._build_worker(rank))
        self.contexts: list[ProgramContext] = []

        #: The sampled metric registry (None when config.telemetry is
        #: None — the default build carries only is-it-None checks, like
        #: faults).
        self.telemetry = None
        if telemetry_cfg is not None:
            self.telemetry = self._build_telemetry(telemetry_cfg)

        # The watchdog registers last so its checks see each cycle's
        # final state.  Default on whenever faults are injected: a failed
        # recovery must report, not spin silently to max_cycles.
        budget = config.watchdog_cycles or (
            200_000 if self.injector is not None else 0
        )
        self.watchdog = None
        if budget > 0:
            self.watchdog = self.sim.register(
                ProgressWatchdog(
                    budget,
                    snapshot=self._progress_snapshot,
                    busy=self._progress_busy,
                    watched=(self.fabric, self.mpmmu, *self.nodes),
                )
            )
            # Components register asleep; arm the periodic check so the
            # kernel always holds a pending wakeup for it.
            self.watchdog.wake()

    # -- construction -----------------------------------------------------------

    def _credit_plan(self, node_id: int) -> dict[int, int]:
        """Topology-aware per-peer initial credit limits for one tile.

        On uniform (legacy) topologies every hop RTT fits the hardware
        default window, so the plan is empty and every code path is
        bit-identical to the fixed-constant scheme.  With slow
        inter-chiplet links, a peer's window wants to cover its credit
        round trip (``2 x path latency``) plus one credit window of
        slack; the 4-bit wire sequence format caps the span at
        CREDIT_LIMIT, so the widened budget only takes effect in
        reliable mode, whose 16-bit sequence numbers track spans up to
        the double-buffer bound (MAX_SPAN - CREDIT_WINDOW keeps the
        crediting granularity inside it).
        """
        topology = self.topology
        if topology.uniform_links:
            return {}
        reliable = self.injector is not None
        cap = (MAX_SPAN - CREDIT_WINDOW) if reliable else CREDIT_LIMIT
        plan = topology.credit_plans.get((node_id, cap))
        if plan is None:
            plan = topology.credit_plans[node_id, cap] = {}
            for peer, latency in enumerate(topology.path_latencies(node_id)):
                limit = max(CREDIT_LIMIT, min(cap, 2 * latency + CREDIT_WINDOW))
                if limit != CREDIT_LIMIT and peer != node_id:
                    plan[peer] = limit
        # The plan is the topology's, shared by every system built on it;
        # the TIE gets a copy of its own.
        return dict(plan)

    def _build_worker(self, rank: int) -> ProcessorNode:
        config = self.config
        node_id = self.rank_to_node[rank]
        ports = self.fabric.ports_of(node_id)
        lut = AddressLut(MPMMU_NODE)
        tie = TieInterface(node_id, credit_plan=self._credit_plan(node_id))
        if self.injector is not None:
            tie.reliable = True
            tie.faults = self.injector
            # The retransmit SRAM must hold every in-flight slot, so a
            # widened chiplet credit plan sizes it up along with the window.
            tie.retx_slots = max(
                config.faults.retx_slots,
                max(tie.credit_plan.values(), default=0),
            )
        dma = None
        if config.dma_tx_queue_depth > 0:
            dma = DmaTxEngine(
                tie,
                n_nodes=self.topology.n_nodes,
                depth=config.dma_tx_queue_depth,
                multicast=config.noc_multicast,
                events=self._hardware_events,
                clock=self.sim,
            )
        reliability = None
        if self.injector is not None:
            reliability = ReliabilityAgent(tie, self.injector, dma=dma)
        node = ProcessorNode(
            rank=rank,
            ports=ports,
            cache=L1Cache(
                config.cache_size_bytes,
                policy=config.policy,
                name=f"l1[{rank}]",
            ),
            write_buffer_depth=config.write_buffer_depth,
            bridge=Pif2NocBridge(node_id, lut, name=f"pif2noc[{rank}]"),
            arbiter=NocAccessArbiter(
                ports.inject,
                mode=config.arbiter_mode,
                high_priority=config.arbiter_high_priority,
                name=f"arb[{rank}]",
            ),
            tie=tie,
            scratchpad=Scratchpad(name=f"lmem[{rank}]"),
            memory_map=self.map,
            cost=config.fp,
            events=self.events,
            dma=dma,
            reliability=reliability,
        )
        self.sim.register(node)
        return node

    def _build_telemetry(self, telemetry_cfg) -> MetricRegistry:
        """Assemble the metric registry and arm the periodic sampler.

        The sampler component registers after every worker so its
        snapshots see each cycle's final state.
        """
        registry = MetricRegistry(telemetry_cfg.sample_interval)
        self.fabric.enable_spatial()
        registry.add_source("noc", self.fabric.spatial_values)
        registry.add_counters("noc", self.fabric.stats)
        registry.add_latency("noc.latency", self.fabric.latency)
        registry.add_counters("mpmmu", self.mpmmu.stats)
        for node in self.nodes:
            node_id = self.rank_to_node[node.rank]
            registry.add_counters(f"tile{node_id}.core", node.stats)
            registry.add_counters(f"tile{node_id}.cache", node.cache.stats)
            registry.add_counters(f"tile{node_id}.tie", node.tie.stats)
            if node.dma is not None:
                registry.add_counters(f"tile{node_id}.dma", node.dma.stats)
        if self.injector is not None:
            registry.add_counters("faults", self.injector.counts)
        registry.add_source(
            "empi.overlap",
            OverlapFold(self.events, self.rank_to_node).values,
        )
        self.sampler = self.sim.register(TelemetrySampler(registry))
        self.sampler.wake()
        return registry

    # -- watchdog plumbing -------------------------------------------------------

    def _progress_snapshot(self) -> tuple:
        """Flit-motion fingerprint: unchanged between checks = no traffic."""
        stats = self.fabric.stats
        return (
            stats.get("flits_injected"),
            stats.get("flits_ejected"),
            self.fabric.flits_in_network,
        )

    def _progress_busy(self) -> bool:
        """True while any core is RUNNING or the MPMMU is mid-service."""
        from repro.pe.processor import CoreState
        if not self.mpmmu.idle:
            return True
        return any(
            node.state is CoreState.RUNNING for node in self.nodes
        )

    def report(self) -> str:
        """What every error that stops a run unfinished carries: the top
        cycle-ledger stall class per unfinished rank (always-on counters),
        one derived line per component (``kernel/state.py``), the pending
        eMPI requests, the fault context and the last telemetry sample."""
        from repro.kernel.state import component_lines
        from repro.pe.processor import CoreState
        cycle = self.sim.cycle
        ledger = []
        for node in self.nodes:
            if node.state is not CoreState.DONE:
                stall, cycles = max(
                    (item for item in node.cycle_ledger(cycle).items()
                     if item[0] not in ("compute", "idle")),
                    key=lambda item: item[1],
                )
                share = (100 * cycles) // cycle if cycle else 0
                ledger.append(f"rank {node.rank} {stall} {cycles}cyc ({share}%)")
        lines = [f"  cycle ledger: {', '.join(ledger) or 'all ranks done'}",
                 *component_lines(self.sim.components)]
        for ctx in self.contexts:
            labels = ctx.empi.engine.active_labels
            if labels:
                lines.append(
                    f"  empi[rank {ctx.rank}]: pending {', '.join(labels)}"
                )
        for source in (self.injector, self.telemetry):
            if source is not None:
                lines.append(f"  {source.describe()}")
        return "\n".join(lines)

    def context_for(self, rank: int) -> ProgramContext:
        """Build the architectural context handed to rank's program."""
        config = self.config
        ctx = ProgramContext(
            rank=rank,
            n_workers=config.n_workers,
            node_id=self.rank_to_node[rank],
            memory_map=self.map,
            cost=config.fp,
            rank_to_node=self.rank_to_node,
            dma_queue_depth=config.dma_tx_queue_depth,
            dma_reduce_assist=config.dma_reduce_assist,
            empi_timeout_cycles=config.empi_timeout_cycles,
            empi_timeout_retries=config.empi_timeout_retries,
        )
        ctx.rank_groups = self.rank_groups
        ctx.report = self.report
        telemetry_cfg = config.telemetry
        ctx.attribution = (
            telemetry_cfg is not None and telemetry_cfg.attribution
        )
        ctx.empi = Empi(ctx, barrier_algorithm=config.empi_barrier)
        return ctx

    # -- program loading & running ---------------------------------------------------

    def load_programs(self, factories: list[ProgramFactory]) -> None:
        """Install one program per rank (list length must equal n_workers)."""
        if len(factories) != self.config.n_workers:
            raise ConfigError(
                f"need {self.config.n_workers} programs, got {len(factories)}"
            )
        self.contexts = []
        agreement = Agreement()
        for rank, factory in enumerate(factories):
            ctx = self.context_for(rank)
            ctx.agreement = agreement
            self.contexts.append(ctx)
            self.nodes[rank].load_program(factory(ctx))

    def finished(self) -> bool:
        """True when every program ended and all traffic has drained."""
        # A plain loop: the kernel polls this on every idle cycle.
        for node in self.nodes:
            if not node.drained:
                return False
        return self.mpmmu.idle and self.fabric.flits_in_network == 0

    def run(self, max_cycles: int | None = None) -> int:
        """Run to completion; returns elapsed cycles.

        Raises :class:`~repro.errors.DeadlockError` (with per-component
        diagnostics) if the system wedges, and
        :class:`~repro.errors.SimulationError` if ``max_cycles`` elapse
        first.
        """
        budget = max_cycles if max_cycles is not None else DEFAULT_MAX_CYCLES
        start = self.sim.cycle
        # A finished system is necessarily quiescent (every component has
        # slept), so the drained/idle scan only needs to run on cycles
        # where the kernel's active set is empty.
        self.sim.run(max_cycles=budget, until=self.finished, until_idle=True)
        return self.sim.cycle - start

    @property
    def cycle(self) -> int:
        return self.sim.cycle

    # -- post-run inspection -------------------------------------------------------------

    def debug_read_word(self, addr: int) -> int:
        """Architectural value of a word, wherever it currently lives.

        Private segments: the owner's cache wins over DDR (it may hold
        dirty lines).  Shared segment: any worker holding the line *dirty*
        wins (at most one may, if the software protocol was followed);
        otherwise DDR is authoritative.
        """
        segment = self.map.segment_of(addr)
        if segment.owner >= 0:
            line = self.nodes[segment.owner].cache.probe(addr)
            if line is not None:
                return line.words[(addr % LINE_BYTES) >> 2]
            return self.ddr.store.read_word(addr)
        dirty_value: int | None = None
        for node in self.nodes:
            line = node.cache.probe(addr)
            if line is not None and line.dirty:
                if dirty_value is not None:
                    raise MemoryAccessError(
                        f"two dirty copies of shared word {addr:#x}: "
                        f"software coherence protocol was violated"
                    )
                dirty_value = line.words[(addr % LINE_BYTES) >> 2]
        if dirty_value is not None:
            return dirty_value
        return self.ddr.store.read_word(addr)

    def debug_read_double(self, addr: int) -> float:
        return words_to_float(
            self.debug_read_word(addr), self.debug_read_word(addr + 4)
        )

    def collect_stats(self) -> dict:
        """Aggregate statistics for reports and tests."""
        return {
            "cycles": self.sim.cycle,
            "noc": {
                **self.fabric.stats.as_dict(),
                "latency": self.fabric.latency.as_dict(),
            },
            "mpmmu": self.mpmmu.stats.as_dict(),
            "workers": [
                {
                    "rank": node.rank,
                    "core": node.stats.as_dict(),
                    "cache": node.cache.stats.as_dict(),
                    "bridge": node.bridge.stats.as_dict(),
                    "bridge_latency": node.bridge.latency.as_dict(),
                    "tie": node.tie.stats.as_dict(),
                    "dma": (
                        node.dma.stats.as_dict()
                        if node.dma is not None else {}
                    ),
                }
                for node in self.nodes
            ],
            **(
                {"faults": self.injector.as_dict()}
                if self.injector is not None else {}
            ),
            **(
                {"telemetry": self._telemetry_summary()}
                if self.telemetry is not None else {}
            ),
        }

    def _telemetry_summary(self) -> dict:
        """Close the timeline at the current cycle and summarize it."""
        from repro.telemetry.attribution import attribution_summary
        registry = self.telemetry
        registry.finalize(self.sim.cycle)
        return {
            "attribution": attribution_summary(self),
            "sample_interval": registry.sample_interval,
            "samples": len(registry.samples),
            "sampled_overlap_efficiency": sampled_overlap_efficiency(
                registry
            ),
            "trace_events": len(self.events.ring),
            "trace_dropped": self.events.dropped,
            "noc_spatial": self.fabric.spatial_dict(),
        }
