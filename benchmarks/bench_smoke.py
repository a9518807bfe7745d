"""Cycle-exactness smoke: fast enough for every CI run (<60 s total).

The golden cycle counts written next to each workload below must keep
reproducing bit-for-bit; a kernel or NoC "optimization" that drifts the
architecture's timing fails here rather than silently shifting every
figure.  Simulator *speed* is not measured here: ``benchmarks/perf`` is
the one stopwatch (phases, repetitions, host calibration).

The workload set covers both traffic shapes: the Jacobi kernels guard
the memory system (cache/bridge/MPMMU path) and the collective workload
guards the communication layer (TIE streams, request tokens, the
arbiter's message class), so a comm-layer timing regression is caught
exactly like a kernel one.

Needs no pytest plugins: plain ``pytest benchmarks/bench_smoke.py``.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

#: (runner, golden) per workload.  Each runner returns a result with
#: ``validated`` and the attributes the golden names — ``total_cycles``
#: plus ``iteration_cycles`` (Jacobi) or ``op_cycles`` (collectives) —
#: all compared exactly.  Regenerate a golden only for an intentional
#: architecture change.
SMOKE_WORKLOADS = {
    "reference_8w16kb_n30": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=8, cache_size_kb=16),
            JacobiParams(n=30, iterations=3, warmup=1),
        ),
        {"total_cycles": 72094, "iteration_cycles": [17352, 11034, 11031]},
    ),
    "small_2w4kb_n16": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=2, cache_size_kb=4),
            JacobiParams(n=16, iterations=3, warmup=1),
        ),
        {"total_cycles": 38493, "iteration_cycles": [11560, 9423, 9423]},
    ),
    "saturated_mpmmu_8w16kb_wt_n16": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wt"),
            JacobiParams(n=16, iterations=2, warmup=0),
        ),
        {"total_cycles": 51534, "iteration_cycles": [13894, 13788]},
    ),
    "collective_allreduce_8w_tree": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=8, cache_size_kb=16),
            CollectiveBenchParams(
                collective="allreduce", model="empi", algorithm="tree",
                n_values=16, repeats=4,
            ),
        ),
        {"total_cycles": 5380, "op_cycles": 5344},
    ),
    # The hardware collective engine: DMA TX queue + NoC multicast.  This
    # golden pins the offloaded path's timing (descriptor posting, fabric
    # replication, multicast streams and their credits) exactly like the
    # kernel goldens pin the memory system's.
    "multicast_bcast_8w": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=8, cache_size_kb=16,
                         dma_tx_queue_depth=4),
            CollectiveBenchParams(
                collective="bcast", model="empi", algorithm="hw",
                n_values=16, repeats=4,
            ),
        ),
        {"total_cycles": 255, "op_cycles": 219},
    ),
    # Long-vector allreduce over the ring schedule on the engine path
    # (neighbour multicast descriptors + qreduce accumulate-on-receive):
    # pins the reduction assist's timing and the reduce-scatter/allgather
    # segment arithmetic, so long-vector comm timing is CI-guarded.
    "ring_allreduce_8w_long": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=8, cache_size_kb=16,
                         dma_tx_queue_depth=4),
            CollectiveBenchParams(
                collective="allreduce", model="empi", algorithm="ring",
                n_values=256, repeats=2,
            ),
        ),
        {"total_cycles": 3376, "op_cycles": 3340},
    ),
    # The fault layer under fire: the tree-allreduce workload with 2%
    # seeded flit loss.  Pins the recovery protocol's timing (CRC drops,
    # NACK/retransmit rounds, credit probes) exactly like the fault-free
    # goldens pin the clean paths; the run is watchdog-guarded (the
    # injector arms a default no-progress watchdog), so a recovery
    # regression fails with a structured report instead of hanging CI.
    "lossy_allreduce_8w_tree": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=8, cache_size_kb=16,
                         faults=FaultPlan(seed=3, drop_rate=0.02)),
            CollectiveBenchParams(
                collective="allreduce", model="empi", algorithm="tree",
                n_values=16, repeats=4,
            ),
        ),
        {"total_cycles": 8396, "op_cycles": 8360},
    ),
    # The hierarchical package: 4 compute chiplets of 2x2 around the IO
    # hub, serialized inter-chiplet links, and the hierarchical allreduce
    # schedule (intra-chiplet ring + gateway tree).  Pins the chiplet
    # topology's routing tables, the serializing-link fabric path and the
    # hierarchical collective's timing the way the grid goldens pin the
    # flat ones.
    "chiplet_allreduce_16w_hier": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=16, cache_size_kb=16,
                         topology_kind="chiplet", chiplets=4,
                         chiplet_grid=(2, 2), chiplet_link_latency=4,
                         chiplet_link_width=2),
            CollectiveBenchParams(
                collective="allreduce", model="empi", algorithm="hier",
                n_values=16, repeats=2,
            ),
        ),
        {"total_cycles": 3202, "op_cycles": 3125},
    ),
    # The full observability stack armed: metric sampler, event tracer and
    # NoC spatial counters all recording.  Telemetry is bookkeeping only,
    # so its cycle golden is identical to the untelemetered
    # collective_allreduce_8w_tree entry above.
    "telemetry_allreduce_8w_tree": (
        partial(
            run_collective_bench,
            SystemConfig(n_workers=8, cache_size_kb=16,
                         telemetry=TelemetryConfig(sample_interval=1024)),
            CollectiveBenchParams(
                collective="allreduce", model="empi", algorithm="tree",
                n_values=16, repeats=4,
            ),
        ),
        {"total_cycles": 5380, "op_cycles": 5344},
    ),
}


def test_fault_layer_off_is_zero_overhead():
    """With ``faults=None`` (the default) the fault layer must cost
    exactly nothing: the same machine and workload as the lossy smoke
    above reproduces the committed fault-free golden bit for bit."""
    result = run_collective_bench(
        SystemConfig(n_workers=8, cache_size_kb=16, faults=None),
        CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm="tree",
            n_values=16, repeats=4,
        ),
    )
    reference = SMOKE_WORKLOADS["collective_allreduce_8w_tree"][1]
    assert result.validated
    assert result.total_cycles == reference["total_cycles"]
    assert result.op_cycles == reference["op_cycles"]


def test_telemetry_layer_is_timing_neutral():
    """Telemetry must observe without perturbing: the fully instrumented
    workload (sampler + tracer + spatial counters) reproduces the
    *untelemetered* golden bit for bit, and with ``telemetry=None`` (the
    default) the layer's hot-path cost is a single attribute check."""
    result = run_collective_bench(
        SystemConfig(n_workers=8, cache_size_kb=16,
                     telemetry=TelemetryConfig(sample_interval=1024)),
        CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm="tree",
            n_values=16, repeats=4,
        ),
    )
    reference = SMOKE_WORKLOADS["collective_allreduce_8w_tree"][1]
    assert result.validated
    assert result.total_cycles == reference["total_cycles"]
    assert result.op_cycles == reference["op_cycles"]
    summary = result.stats["telemetry"]
    assert summary["samples"] > 0
    assert summary["trace_events"] > 0


def test_attribution_is_timing_neutral():
    """Arming cycle attribution must not move a single cycle: the
    ``cp+``/``cph``/``cp-`` events it adds are zero-cycle ops, so the
    instrumented workload reproduces the untelemetered golden bit for
    bit — while actually recording critical-path spans."""
    from repro.telemetry.attribution import critical_paths

    captured = {}
    result = run_collective_bench(
        SystemConfig(n_workers=8, cache_size_kb=16,
                     telemetry=TelemetryConfig(sample_interval=1024,
                                               attribution=True)),
        CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm="tree",
            n_values=16, repeats=4,
        ),
        observer=lambda system: captured.setdefault("system", system),
    )
    reference = SMOKE_WORKLOADS["collective_allreduce_8w_tree"][1]
    assert result.validated
    assert result.total_cycles == reference["total_cycles"]
    assert result.op_cycles == reference["op_cycles"]
    system = captured["system"]
    paths = critical_paths(system.events, system.rank_to_node)
    assert len(paths) == 4  # one per repeat
    for path in paths:
        assert sum(edge["cycles"] for edge in path["edges"]) == path["latency"]


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_smoke_workload(name):
    runner, golden = SMOKE_WORKLOADS[name]
    result = runner()
    assert result.validated, f"{name}: numerical validation failed"
    for attribute, expected in golden.items():
        assert getattr(result, attribute) == expected, (
            f"{name}: {attribute} drifted from the golden value "
            f"({getattr(result, attribute)} != {expected}); either a timing "
            f"bug or an intentional architecture change — if the latter, "
            f"update the golden beside the workload"
        )
