"""System configuration: the knobs of the MEDEA design space that are turned.

A design field is here because a registered experiment or a benchmark
workload turns it (``benchmarks/options_census.txt`` lists each field with
the values the repo's traffic hands it).  The fields that listing shows
with one value on purpose are run-time hooks that tests set, not design
points: ``grid``, ``shared_size``, ``private_size``, ``strict_encoding``,
``trace``, ``watchdog_cycles``, ``empi_timeout_cycles`` and
``empi_timeout_retries``; ``fp`` is one cost-model object whose own field
(``FpCostModel.use_mul_high``) the listing counts.  A model constant no run
varies — the 16-byte line, the cache associativity, FIFO depths, the
MPMMU's service overhead, DDR read latency and write cost — lives once,
beside the component that owns it, as a named constant or that
constructor's default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.l1 import WritePolicy
from repro.bridge.arbiter import ArbiterMode, TrafficClass
from repro.empi.runtime import BarrierAlgorithm
from repro.errors import ConfigError, parse_enum
from repro.faults import FaultPlan
from repro.pe.costmodel import FpCostModel
from repro.telemetry.config import TelemetryConfig

#: The paper sweeps caches from 2 kB to 64 kB in powers of two.
VALID_CACHE_SIZES_KB = (2, 4, 8, 16, 32, 64)


@dataclass
class SystemConfig:
    """Full description of one architecture point.

    The three headline axes of the paper's exploration are ``n_workers``
    (2-15 compute cores; the MPMMU is one more node), ``cache_size_kb``
    (2-64 kB) and ``cache_policy`` ('wb'/'wt').  Everything else defaults
    to the reference implementation described in Section II.  Only what
    the traffic or a test turns is a field; model constants live beside
    their component (see the module docstring).
    """

    # -- exploration axes ---------------------------------------------------
    n_workers: int = 4
    cache_size_kb: int = 16
    cache_policy: WritePolicy | str = "wb"

    # -- L1 details -----------------------------------------------------------
    write_buffer_depth: int = 4

    # -- NoC ------------------------------------------------------------------
    topology_kind: str = "folded_torus"  # or "mesh" / "chiplet"
    grid: tuple[int, int] | None = None  # None = smallest near-square fit
    eject_width: int = 1
    strict_encoding: bool = False

    # -- chiplet topology (used when topology_kind == "chiplet") --------------
    #: Number of compute chiplets around the central IO chiplet (which
    #: holds the MPMMU at node 0, next to the memory controller).
    chiplets: int = 4
    #: Per-chiplet compute mesh shape; None = smallest near-square mesh
    #: that fits the workers split evenly across the chiplets.
    chiplet_grid: tuple[int, int] | None = None
    #: Flight latency of each inter-chiplet link in cycles (on-die links
    #: are always 1; off-package SerDes hops cost several).
    chiplet_link_latency: int = 4
    #: Inter-chiplet link serialization factor: cycles one flit occupies
    #: the wire (2 = half-width off-die link).
    chiplet_link_width: int = 1

    # -- DMA/collective engine (opt-in hardware assist) -----------------------
    #: Depth of the per-tile DMA TX descriptor queue; 0 disables the
    #: engine entirely (seed behaviour — every committed golden cycle
    #: count is bit-identical with it off).
    dma_tx_queue_depth: int = 0
    #: When the engine exists, emit true MULTICAST flits the fabric
    #: replicates (True) or expand multicast descriptors into per-member
    #: unicast streams (False — the equivalence-tested fallback for
    #: networks whose flit format cannot carry the mask).
    noc_multicast: bool = True
    #: When the engine exists, let reductions combine at the engine on
    #: flit arrival (the ``qreduce`` accumulate-on-receive assist).
    #: False reproduces the PR-4 engine: broadcast offloads, the
    #: combining leg serializes through processor ops — the sw-reduce
    #: baseline of the DSE crossover table.
    dma_reduce_assist: bool = True

    # -- arbiter (Fig. 3 configurations) ----------------------------------------
    arbiter_mode: ArbiterMode | str = "dual_fifo"
    arbiter_high_priority: TrafficClass | str = "message"

    # -- memory map ------------------------------------------------------------------
    shared_size: int = 1 << 20
    private_size: int = 1 << 20

    # -- core -----------------------------------------------------------------------
    fp: FpCostModel = field(default_factory=FpCostModel)

    # -- runtime ----------------------------------------------------------------------
    empi_barrier: BarrierAlgorithm | str = "central"
    #: Record hardware events (NoC ejects, DMA descriptor lifecycles) in
    #: the system's event log; telemetry implies it.
    trace: bool = False

    # -- fault injection + recovery (opt-in; default off) -----------------------------
    #: Seeded fault schedule (:class:`repro.faults.FaultPlan`).  None keeps
    #: every fault/reliability code path dormant — committed golden cycle
    #: counts are bit-identical with the subsystem absent.
    faults: FaultPlan | None = None
    #: No-progress watchdog check interval in cycles; 0 = disabled unless
    #: a fault plan is active (then a 200k-cycle default kicks in, so a
    #: stuck recovery reports instead of spinning to max_cycles).
    watchdog_cycles: int = 0
    #: eMPI wait/progress cycle budget before a timed retry; 0 = wait
    #: forever (the fault-free default).
    empi_timeout_cycles: int = 0
    #: Exponential-backoff retries before an eMPI wait raises
    #: :class:`~repro.errors.EmpiTimeoutError`.
    empi_timeout_retries: int = 3

    # -- telemetry (opt-in; default off) -----------------------------------------------
    #: Observability layer (:class:`repro.telemetry.TelemetryConfig`):
    #: sampled metric timelines, lifecycle trace events, NoC spatial
    #: matrices.  None keeps every committed golden bit-identical; the
    #: only hot-path cost anywhere is an is-it-None attribute check.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        # A config loaded from JSON carries lists; the topology factory
        # memoises on these, and the DSE cache key prints them.
        for name in ("grid", "chiplet_grid"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, tuple(value))

    # -- derived -------------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Worker cores plus the MPMMU node."""
        return self.n_workers + 1

    @property
    def cache_size_bytes(self) -> int:
        return self.cache_size_kb * 1024

    @property
    def policy(self) -> WritePolicy:
        return WritePolicy.parse(self.cache_policy)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an inconsistent setting.

        The topology (kind, grid and chiplet sizes, link figures) and the
        fault plan are checked once, where :class:`MedeaSystem` builds them
        (:func:`~repro.noc.topology.build_topology`,
        :class:`~repro.faults.FaultInjector`).
        """
        if not (1 <= self.n_workers):
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.cache_size_kb < 1 or self.cache_size_kb & (self.cache_size_kb - 1):
            raise ConfigError(
                f"cache_size_kb must be a power of two, got {self.cache_size_kb}"
            )
        WritePolicy.parse(self.cache_policy)
        ArbiterMode.parse(self.arbiter_mode)
        parse_enum(TrafficClass, self.arbiter_high_priority, "traffic class")
        parse_enum(BarrierAlgorithm, self.empi_barrier, "barrier algorithm")
        if self.eject_width < 1:
            raise ConfigError("eject_width must be >= 1")
        if self.dma_tx_queue_depth < 0:
            raise ConfigError(
                f"dma_tx_queue_depth must be >= 0, "
                f"got {self.dma_tx_queue_depth}"
            )
        if self.write_buffer_depth < 1:
            raise ConfigError("write_buffer_depth must be >= 1")
        for name in ("watchdog_cycles", "empi_timeout_cycles",
                     "empi_timeout_retries"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.telemetry is not None:
            self.telemetry.validate()

    def with_changes(self, **changes: object) -> "SystemConfig":
        """A copy with the given fields replaced (sweep convenience)."""
        return replace(self, **changes)

    def label(self) -> str:
        """Short human label, e.g. ``8P_16k$_WB`` (paper figure style)."""
        policy = self.policy.value.upper()
        return f"{self.n_workers}P_{self.cache_size_kb}k$_{policy}"
