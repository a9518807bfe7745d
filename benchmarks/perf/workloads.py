"""The eight benchmark workloads and their golden simulated cycles.

Inputs are deterministic (``initial_grid`` / ``bench_value``) and modelled
caches start empty.  Every workload is sized so one driver call takes
0.5-0.7 s on the 2-core reference host: the benchmark driver allows
about 19 s per process, which must hold a set-up measurement, a warm-up
and at least seven timed repetitions.  Goldens were measured on the tree
that added the benchmark; a simulator-only change must reproduce them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

#: The fault pattern of every timed repetition of the lossy workload.
#: ``--seed`` only moves the untimed warm-up's pattern: recovery cost
#: differs 5-10 % between seeds, which would swamp the 10 % bound.
PINNED_FAULT_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why it exists and which layer it bypasses.
    why: str
    driver: Callable
    config: SystemConfig
    params: object
    golden_cycles: int
    golden_cycles_per_op: float
    #: Systems built per timed set-up region (region about 0.2 s).
    setup_batch: int

    @property
    def ops(self) -> int:
        """Timed operations: Jacobi iterations or collective repeats."""
        if isinstance(self.params, JacobiParams):
            return self.params.iterations
        return self.params.repeats

    def config_for_seed(self, seed: int) -> SystemConfig:
        """The config with its fault pattern (if any) reseeded."""
        if self.config.faults is None:
            return self.config
        return self.config.with_changes(
            faults=replace(self.config.faults, seed=seed)
        )


def cycles_per_op(result) -> float:
    """The paper's figure of merit: mean post-warm-up cycles per Jacobi
    iteration (Fig. 6) or per collective operation."""
    per_op = getattr(result, "cycles_per_op", None)
    return result.cycles_per_iteration if per_op is None else per_op


_EIGHT = SystemConfig(n_workers=8, cache_size_kb=16)
_EIGHT_WT = _EIGHT.with_changes(cache_policy="wt")
_JACOBI_WT = JacobiParams(n=18, iterations=3, warmup=1)


def _allreduce(model: str, algorithm: str, n_values: int, repeats: int):
    return CollectiveBenchParams(
        collective="allreduce", model=model, algorithm=algorithm,
        n_values=n_values, repeats=repeats,
    )


WORKLOADS = (
    Workload(
        "jacobi_wb_8w",
        "compute and L1 hits dominate: the workload where pe and cache "
        "do most of the host work; dma, faults and telemetry bypassed",
        run_jacobi, _EIGHT, JacobiParams(n=46, iterations=3, warmup=1),
        158164, 25679.0, setup_batch=16,
    ),
    Workload(
        "jacobi_wt_8w",
        "write-through: every store goes bridge -> NoC -> MPMMU, so "
        "kernel, noc and mpmmu carry it; telemetry's bypass twin",
        run_jacobi, _EIGHT_WT, _JACOBI_WT,
        75321, 14246.5, setup_batch=16,
    ),
    Workload(
        "jacobi_wt_8w_telemetry",
        "jacobi_wt_8w with sampling and attribution on: same cycles by "
        "design, the ratio to its twin is the host cost of observability",
        run_jacobi,
        _EIGHT_WT.with_changes(
            telemetry=TelemetryConfig(sample_interval=1024, attribution=True)
        ),
        _JACOBI_WT,
        75321, 14246.5, setup_batch=16,
    ),
    Workload(
        "jacobi_wb_64t",
        "the scaling point: same code on 63 workers + MPMMU (8x8 "
        "fabric), noc overtakes pe and set-up becomes resolvable",
        run_jacobi, SystemConfig(n_workers=63, cache_size_kb=16),
        JacobiParams(n=34, iterations=2, warmup=0),
        102544, 12227.0, setup_batch=2,
    ),
    Workload(
        "allreduce_ring_8w",
        "comm-dense eMPI ring allreduce on the DMA engine: every tile "
        "active every cycle, zero memory traffic; bypasses cache, mpmmu",
        run_collective_bench, _EIGHT.with_changes(dma_tx_queue_depth=4),
        _allreduce("empi", "ring", 256, 3),
        5007, 1657.0, setup_batch=16,
    ),
    Workload(
        "allreduce_sm_8w",
        "the same collective API carried by shared memory (lock/poll "
        "through the MPMMU): the other half of empi; bypasses TIE, dma",
        run_collective_bench, _EIGHT, _allreduce("pure_sm", "tree", 16, 2),
        97870, 47479.0, setup_batch=16,
    ),
    Workload(
        "allreduce_tree_8w_lossy",
        "eMPI tree allreduce under 2% flit drops: the only workload "
        "where faults and NACK/retransmit run; all others are its bypass",
        run_collective_bench,
        _EIGHT.with_changes(
            faults=FaultPlan(seed=PINNED_FAULT_SEED, drop_rate=0.02)
        ),
        _allreduce("empi", "tree", 16, 16),
        35335, 2206.1875, setup_batch=16,
    ),
    Workload(
        "chiplet_hier_64t",
        "64 workers on 4 chiplets, slow links, hier allreduce: build "
        "and host-side validation rival simulation; delayed-delivery path",
        run_collective_bench,
        SystemConfig(
            n_workers=64, cache_size_kb=16, topology_kind="chiplet",
            chiplets=4, chiplet_grid=(4, 4), chiplet_link_latency=8,
            chiplet_link_width=2,
        ),
        _allreduce("empi", "hier", 16, 2),
        4396, 2058.0, setup_batch=2,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
