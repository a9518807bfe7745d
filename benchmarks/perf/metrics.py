"""Metric tables and sample reductions of the MEDEA benchmark.

The two tables are the single definition of every metric name, unit,
direction and regression bound; ``BENCHMARK.json`` repeats them for the
driver and ``test_perf_harness.py`` checks that the two agree.
"""

from __future__ import annotations

import statistics

#: Regression bound on timed metrics.  Ten-run quartile spreads measured
#: on the 2-core shared reference host are 4-7 % after speed scaling
#: (8-26 % before), and a bound must be three times the spread; set-up,
#: the shortest timed region, may have no smaller bound than the rest.
TIMED_BOUND = 0.25
#: Peak RSS repeats within 2 %.
MEMORY_BOUND = 0.10

#: ``(name, unit, better, bound)`` — what one sweep point costs a user.
#: Simulated time is named ``sim_*``/``cycles_*``; everything else is
#: host time or host memory.  Exact metrics carry bound 0.
END_TO_END = (
    ("sim_cycles_per_s", "cycles/s", "higher", TIMED_BOUND),
    ("total_s", "s", "lower", TIMED_BOUND),
    ("setup_s", "s", "lower", TIMED_BOUND),
    ("peak_rss_mb", "MiB", "lower", MEMORY_BOUND),
    ("sim_cycles", "cycles", "lower", 0.0),
    ("cycles_per_op", "cycles", "lower", 0.0),
)

#: Printed and compared with the rest, but not in ``BENCHMARK.json``
#: (its metrics may never read 0; the result line's ``failed`` /
#: ``attempted`` carry it there).
FAILED_SHARE = ("failed_share", "fraction", "lower", 0.0)

#: Host-time layers, named after the ``src/repro/`` packages (``faults``
#: is the one top-level module with a layer of its own).
LAYERS = (
    "kernel", "noc", "pe", "cache", "bridge", "mpmmu", "mem", "dma",
    "empi", "apps", "system", "telemetry", "faults", "host_other",
)

#: The eight classes of the PR-9 tile-cycle ledger, in ledger order.
LEDGER_CLASSES = (
    "compute", "wait_msg", "mem_stall", "credit_stall", "tx_stream",
    "barrier_spin", "lock_spin", "idle",
)

#: ``(name, unit, better)`` — one traced pass, no bounds.
PER_LAYER = (
    *((f"{layer}.host_share", "fraction", "lower") for layer in LAYERS),
    *((f"{layer}.host_calls", "count", "lower") for layer in LAYERS),
    ("kernel.steps", "count", "lower"),
    ("kernel.host_ns_per_step", "ns", "lower"),
    ("kernel.host_ns_per_cycle", "ns", "lower"),
    ("kernel.wakeups", "count", "lower"),
    ("kernel.activations", "count", "lower"),
    ("noc.steps", "count", "lower"),
    ("noc.flits_injected", "count", "lower"),
    ("noc.flit_hops", "count", "lower"),
    ("noc.deflections", "count", "lower"),
    ("noc.deflection_ratio", "fraction", "lower"),
    ("noc.eject_overflows", "count", "lower"),
    ("noc.injection_stalls", "count", "lower"),
    ("noc.latency_mean", "cycles", "lower"),
    ("pe.steps", "count", "lower"),
    ("pe.ops_executed", "count", "lower"),
    *(
        (f"pe.{cls}_share", "fraction",
         "higher" if cls == "compute" else "lower")
        for cls in LEDGER_CLASSES
    ),
    ("pe.tie_data_flits_sent", "count", "lower"),
    ("pe.tie_credit_stall_cycles", "cycles", "lower"),
    ("pe.tie_retx_sent", "count", "lower"),
    ("cache.read_hits", "count", "higher"),
    ("cache.read_misses", "count", "lower"),
    ("cache.write_hits", "count", "higher"),
    ("cache.write_misses", "count", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("bridge.txns", "count", "lower"),
    ("bridge.latency_mean", "cycles", "lower"),
    ("mpmmu.steps", "count", "lower"),
    ("mpmmu.requests", "count", "lower"),
    ("mpmmu.busy_share", "fraction", "lower"),
    ("dma.descriptors", "count", "lower"),
    ("dma.flits_sent", "count", "lower"),
    ("dma.credit_stall_cycles", "cycles", "lower"),
    ("dma.values_reduced", "count", "higher"),
    ("faults.dropped", "count", "lower"),
    ("faults.nacks_issued", "count", "lower"),
    ("faults.probes_issued", "count", "lower"),
    ("faults.retx_ratio", "fraction", "lower"),
    ("empi.collective_ops", "count", "higher"),
    ("apps.validate_s", "s", "lower"),
    ("system.build_s", "s", "lower"),
    ("system.load_s", "s", "lower"),
    ("telemetry.samples", "count", "lower"),
    ("telemetry.trace_events", "count", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("scale.ns_per_tile_cycle", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def summarize(values: list[float]) -> dict:
    """Median with min, max and the sample count beside it.

    A run holds 7 to ~15 samples, so no percentile has ten samples
    beyond it and none is reported as a result; the quartiles are kept
    only as the run's own noise estimate for ``compare.py``.
    """
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def failed_share(failed: int, attempted: int) -> float:
    """Failed repetitions over repetitions attempted (0 attempted = all
    failed: a run that measured nothing passed nothing)."""
    return failed / attempted if attempted else 1.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0
