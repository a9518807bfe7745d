"""Canonical traced workloads for ``medea trace``/``analyze`` and CI.

Each workload builds a telemetry-enabled system, runs it, and hands back
the (system, result) pair the exporters need.  The flagship ``cg``
workload exercises every track type at once: request spans and overlap
regions (non-blocking halos + iallreduce), collective phases, DMA
descriptor lifecycles (ring allreduce on the engine), and injected
faults recovered by the reliability layer.  The ``allreduce-8w-*``
workloads isolate one collective per algorithm (tree / software ring /
hardware multicast+assist) so ``medea analyze`` can name the hop that
bounds each path.

All workloads arm :attr:`TelemetryConfig.attribution` — the zero-cycle
``cp`` notes it adds are timing-neutral by construction (enforced by
``tests/telemetry/test_attribution.py``, which holds an attributed run
to the clean run's cycles), and without them the critical-path section of the
analyze report would be empty.

Lives outside the package root on purpose: it imports the application
layer, which ``repro.telemetry`` itself must stay independent of.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.apps.cg import CgParams, CgResult, run_cg
from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class TraceWorkload:
    """One named traced run: a config/params pair plus its runner.

    ``app`` is any runner with the ``(config, params, observer=...)``
    shape (:func:`run_cg`, :func:`run_collective_bench`, ...); the
    observer hook is how the built system survives the run for the
    exporters.
    """

    name: str
    description: str
    build: Callable[[], tuple[SystemConfig, object]]
    app: Callable = field(default=run_cg)

    def run(self):
        """Execute the workload; returns ``(system, result)``."""
        config, params = self.build()
        captured = {}
        result = self.app(
            config, params,
            observer=lambda system: captured.setdefault("system", system),
        )
        return captured["system"], result


def _cg_full_stack() -> tuple[SystemConfig, CgParams]:
    """8w CG with everything on: DMA ring allreduce, faults, telemetry."""
    config = SystemConfig(
        n_workers=8, cache_size_kb=16,
        dma_tx_queue_depth=4,
        faults=FaultPlan(seed=7, drop_rate=0.002),
        telemetry=TelemetryConfig(sample_interval=2048, attribution=True),
    )
    params = CgParams(
        n=64, iterations=10, model="empi", algorithm="ring", overlap=True,
    )
    return config, params


def _cg_reference() -> tuple[SystemConfig, CgParams]:
    """The PR-3 acceptance point (8w, tree, overlap) with telemetry on.

    No faults or DMA: this is the run whose ~0.96 overlap efficiency the
    sampled timeline must reproduce from counters alone.
    """
    config = SystemConfig(
        n_workers=8, cache_size_kb=16,
        telemetry=TelemetryConfig(sample_interval=2048, attribution=True),
    )
    params = CgParams(
        n=64, iterations=10, model="empi", algorithm="tree", overlap=True,
    )
    return config, params


def _cg_tiny() -> tuple[SystemConfig, CgParams]:
    """2w miniature of the full stack, for fast unit tests and CI."""
    config = SystemConfig(
        n_workers=2, cache_size_kb=8,
        dma_tx_queue_depth=4,
        # A scheduled switch stall guarantees at least one fault event in
        # the trace regardless of how the seeded drop dice land.
        faults=FaultPlan(
            seed=3, drop_rate=0.002, stalls=((1, 2000, 32),),
        ),
        telemetry=TelemetryConfig(sample_interval=512, attribution=True),
    )
    params = CgParams(
        n=12, iterations=3, model="empi", algorithm="ring", overlap=True,
    )
    return config, params


def _allreduce_8w(algorithm: str, **config_kw):
    """One isolated 8w allreduce per algorithm, attribution armed."""
    def build() -> tuple[SystemConfig, CollectiveBenchParams]:
        config = SystemConfig(
            n_workers=8, cache_size_kb=16,
            telemetry=TelemetryConfig(
                sample_interval=1024, attribution=True
            ),
            **config_kw,
        )
        params = CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm=algorithm,
            n_values=16, repeats=4,
        )
        return config, params
    return build


TRACE_WORKLOADS: dict[str, TraceWorkload] = {
    workload.name: workload
    for workload in (
        TraceWorkload(
            "cg",
            "8w CG, ring allreduce on the DMA engine, overlap, faults",
            _cg_full_stack,
        ),
        TraceWorkload(
            "cg-reference",
            "8w CG overlap acceptance point (tree, fault-free)",
            _cg_reference,
        ),
        TraceWorkload(
            "cg-tiny",
            "2w miniature full-stack run (fast; unit tests)",
            _cg_tiny,
        ),
        TraceWorkload(
            "allreduce-8w-tree",
            "8w binomial-tree allreduce microbenchmark",
            _allreduce_8w("tree"),
            app=run_collective_bench,
        ),
        TraceWorkload(
            "allreduce-8w-ring",
            "8w software ring allreduce microbenchmark",
            _allreduce_8w("ring"),
            app=run_collective_bench,
        ),
        TraceWorkload(
            "allreduce-8w-hw",
            "8w hw allreduce (multicast tree + engine reduce assist)",
            _allreduce_8w("hw", dma_tx_queue_depth=4),
            app=run_collective_bench,
        ),
    )
}


def run_trace_workload(name: str):
    """Run a named workload; returns ``(system, result)``."""
    try:
        workload = TRACE_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(TRACE_WORKLOADS))
        raise KeyError(
            f"unknown trace workload {name!r} (known: {known})"
        ) from None
    return workload.run()


__all__ = [
    "CgResult",
    "TRACE_WORKLOADS",
    "TraceWorkload",
    "run_trace_workload",
]
