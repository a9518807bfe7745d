"""Perf-regression smoke: fast enough for every CI run (<60 s total).

Two guards for future PRs, cheap enough to never be skipped:

* **cycle-exactness** — the golden cycle counts committed in
  ``BENCH_simspeed.json`` must keep reproducing bit-for-bit; a kernel or
  NoC "optimization" that drifts the architecture's timing fails here
  rather than silently shifting every figure;
* **gross throughput** — each workload must finish within a generous
  wall-time ceiling (~10x slower than the committed numbers on a slow
  host), so an accidental O(n) regression in a per-cycle loop is caught
  without making CI flaky on absolute cycles/sec.

The workload set covers both traffic shapes: the Jacobi kernels guard
the memory system (cache/bridge/MPMMU path) and the collective workload
guards the communication layer (TIE streams, request tokens, the
arbiter's message class), so a comm-layer timing regression is caught
exactly like a kernel one.

Needs no pytest plugins: plain ``pytest benchmarks/bench_smoke.py``.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

BENCH_FILE = Path(__file__).parent.parent / "BENCH_simspeed.json"

#: (runner, wall-time ceiling in seconds) per committed workload.  Each
#: runner returns a result with ``validated``, ``total_cycles`` and —
#: where meaningful — ``iteration_cycles``/``op_cycles``, which are
#: checked against the golden file when committed there.
SMOKE_WORKLOADS = {
    "reference_8w16kb_n30": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=8, cache_size_kb=16),
            JacobiParams(n=30, iterations=3, warmup=1),
        ),
        20.0,
    ),
    "small_2w4kb_n16": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=2, cache_size_kb=4),
            JacobiParams(n=16, iterations=3, warmup=1),
        ),
        10.0,
    ),
    "saturated_mpmmu_8w16kb_wt_n16": (
        partial(
            run_jacobi,
            SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wt"),
            JacobiParams(n=16, iterations=2, warmup=0),
        ),
        20.0,
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
        10.0,
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
        10.0,
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
        10.0,
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
        10.0,
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
        10.0,
    ),
    # The full observability stack armed: metric sampler, event tracer and
    # NoC spatial counters all recording.  Guards the *recording* cost
    # with the usual wall ceiling, and — because telemetry is bookkeeping
    # only — its cycle golden is identical to the untelemetered
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
        10.0,
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
    reference = golden()["collective_allreduce_8w_tree"]
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
    reference = golden()["collective_allreduce_8w_tree"]
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
    reference = golden()["collective_allreduce_8w_tree"]
    assert result.validated
    assert result.total_cycles == reference["total_cycles"]
    assert result.op_cycles == reference["op_cycles"]
    system = captured["system"]
    paths = critical_paths(system.events, system.rank_to_node)
    assert len(paths) == 4  # one per repeat
    for path in paths:
        assert sum(edge["cycles"] for edge in path["edges"]) == path["latency"]


def golden() -> dict:
    return json.loads(BENCH_FILE.read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_smoke_workload(name):
    runner, ceiling = SMOKE_WORKLOADS[name]
    reference = golden()[name]
    started = time.perf_counter()
    result = runner()
    wall = time.perf_counter() - started

    assert result.validated, f"{name}: numerical validation failed"
    assert result.total_cycles == reference["total_cycles"], (
        f"{name}: total cycles drifted from the committed golden value "
        f"({result.total_cycles} != {reference['total_cycles']}); either a "
        f"timing bug or an intentional architecture change — if the latter, "
        f"regenerate BENCH_simspeed.json"
    )
    if "iteration_cycles" in reference:
        assert result.iteration_cycles == reference["iteration_cycles"], (
            f"{name}: per-iteration cycles drifted: {result.iteration_cycles}"
        )
    if "op_cycles" in reference:
        assert result.op_cycles == reference["op_cycles"], (
            f"{name}: collective op cycles drifted: {result.op_cycles}"
        )
    assert wall < ceiling, (
        f"{name}: took {wall:.1f}s (ceiling {ceiling}s) — a gross "
        f"throughput regression in the simulation hot path"
    )
    print(f"\n{name}: {result.total_cycles / wall:,.0f} cycles/sec "
          f"({wall:.2f}s)")
