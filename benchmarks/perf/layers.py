"""The traced pass: host time and simulated work, folded by layer.

Host side: the workload runs once under ``cProfile``; every function's
self time and call count is folded into the ``src/repro/`` package that
defines it.  Self time is a span minus its children by construction, so
the shares sum to 1.  Simulated side: ``collect_stats()`` and the PR-9
ledger of the system the ``observer`` hook captured.
"""

from __future__ import annotations

import cProfile
import time

from metrics import LAYERS, LEDGER_CLASSES, ratio
from phases import Gate, checked_call, phase_summary, timed_samples
from repro.telemetry.attribution import (
    AttributionError,
    aggregate_ledger,
    check_conservation,
    occupancy_ledgers,
)
from workloads import Workload

_PACKAGE_MARK = "/repro/"


def layer_of(filename: str) -> str:
    """The layer that owns a source file: its ``repro`` package, the
    top-level module name for ``repro/faults.py``, else ``host_other``
    (builtins, the standard library, numpy, this benchmark)."""
    head, mark, tail = filename.replace("\\", "/").rpartition(_PACKAGE_MARK)
    if not mark:
        return "host_other"
    name = tail.split("/", 1)[0].removesuffix(".py")
    return name if name in LAYERS else "host_other"


def fold_profile(entries) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries by layer.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "functions":
    {(layer, function name): n}}``; builtins carry a string for a code
    object and land in ``host_other``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    functions = {}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            layer = "host_other"
        else:
            layer = layer_of(code.co_filename)
            key = (layer, code.co_name)
            functions[key] = functions.get(key, 0) + entry.callcount
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    return {"self_s": self_s, "calls": calls, "functions": functions}


def host_metrics(folded: dict) -> dict:
    """``<layer>.host_share`` / ``.host_calls`` plus the step, wake-up
    and activation call counts the kernel metrics are built from."""
    total = sum(folded["self_s"].values())
    functions = folded["functions"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = ratio(folded["self_s"][layer], total)
        metrics[f"{layer}.host_calls"] = folded["calls"][layer]
    # Every Component.step the kernel drove: fabric, cores, MPMMU,
    # watchdog and telemetry sampler.
    metrics["kernel.steps"] = sum(
        count for (_, name), count in functions.items() if name == "step"
    )
    metrics["kernel.wakeups"] = functions.get(("kernel", "wake_at"), 0)
    metrics["kernel.activations"] = functions.get(
        ("kernel", "notify_activated"), 0
    )
    for layer in ("noc", "pe", "mpmmu"):
        metrics[f"{layer}.steps"] = functions.get((layer, "step"), 0)
    return metrics


def _total(rows: list[dict], key: str) -> int:
    return sum(row.get(key, 0) for row in rows)


def simulated_metrics(workload: Workload, stats: dict, system) -> dict:
    """Simulated-side counters of one finished run (exact, seed-free):
    ``stats`` is its ``collect_stats()``, ``system`` the machine itself."""
    workers = stats["workers"]
    noc = stats["noc"]
    cores = [worker["core"] for worker in workers]
    caches = [worker["cache"] for worker in workers]
    ties = [worker["tie"] for worker in workers]
    dmas = [worker["dma"] for worker in workers]
    bridge_latency = [worker["bridge_latency"] for worker in workers]
    faults = stats.get("faults", {})
    telemetry = stats.get("telemetry", {})

    ledger = aggregate_ledger(check_conservation(system))
    mpmmu = occupancy_ledgers(system)["mpmmu"]
    hits = _total(caches, "read_hits") + _total(caches, "write_hits")
    misses = _total(caches, "read_misses") + _total(caches, "write_misses")
    data_flits = _total(ties, "data_flits_sent")

    metrics = {
        "noc.flits_injected": noc.get("flits_injected", 0),
        "noc.flit_hops": noc.get("flit_hops", 0),
        "noc.deflections": noc.get("deflections", 0),
        "noc.deflection_ratio": ratio(
            noc.get("deflections", 0), noc.get("flit_hops", 0)
        ),
        "noc.eject_overflows": noc.get("eject_overflows", 0),
        "noc.injection_stalls": noc.get("injection_stalls", 0),
        "noc.latency_mean": noc["latency"]["mean"],
        "pe.ops_executed": sum(
            count for core in cores for key, count in core.items()
            if key.startswith("ops_")
        ),
        "pe.tie_data_flits_sent": data_flits,
        "pe.tie_credit_stall_cycles": _total(ties, "credit_stall_cycles"),
        "pe.tie_retx_sent": _total(ties, "retx_sent"),
        "cache.read_hits": _total(caches, "read_hits"),
        "cache.read_misses": _total(caches, "read_misses"),
        "cache.write_hits": _total(caches, "write_hits"),
        "cache.write_misses": _total(caches, "write_misses"),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "bridge.txns": sum(
            count for worker in workers
            for key, count in worker["bridge"].items()
            if key.startswith("txn_")
        ),
        "bridge.latency_mean": ratio(
            sum(row["mean"] * row["count"] for row in bridge_latency),
            _total(bridge_latency, "count"),
        ),
        "mpmmu.requests": mpmmu["requests"],
        "mpmmu.busy_share": ratio(mpmmu["busy"], stats["cycles"]),
        "dma.descriptors": sum(
            count for dma in dmas for key, count in dma.items()
            if key.endswith("_descriptors")
        ),
        "dma.flits_sent": _total(dmas, "flits_sent"),
        "dma.credit_stall_cycles": _total(dmas, "credit_stall_cycles"),
        "dma.values_reduced": _total(dmas, "values_reduced"),
        "faults.dropped": faults.get("dropped", 0),
        "faults.nacks_issued": faults.get("nacks_issued", 0),
        "faults.probes_issued": faults.get("probes_issued", 0),
        "faults.retx_ratio": ratio(_total(ties, "retx_sent"), data_flits),
        "empi.collective_ops": workload.ops,
        "telemetry.samples": telemetry.get("samples", 0),
        "telemetry.trace_events": telemetry.get("trace_events", 0),
    }
    for cls in LEDGER_CLASSES:
        metrics[f"pe.{cls}_share"] = ratio(ledger[cls], ledger["total"])
    return metrics


def measure_per_layer(
    workload: Workload, reps: int, seconds: float | None
) -> dict:
    """The traced pass: one profiled repetition, then untraced ones for
    the metrics that divide by untraced time.  A workload with telemetry
    on also runs with it off, for ``telemetry.overhead_ratio``."""
    start = time.perf_counter()
    gate = Gate(workload)
    profiler = cProfile.Profile()
    call = checked_call(gate, profiler=profiler)
    if call is None:
        return {"gate": gate.summary(), "per_layer": {}}
    traced, result, system = call
    metrics = host_metrics(fold_profile(profiler.getstats()))
    try:
        metrics.update(simulated_metrics(workload, result.stats, system))
    except AttributionError as error:
        gate.attempts[-1].append(f"ledger conservation: {error}")
    del call, result, system

    configs = [workload.config]
    if workload.config.telemetry is not None:
        configs.append(workload.config.with_changes(telemetry=None))
    deadline = None if seconds is None else start + seconds
    on, *off = timed_samples(gate, reps, deadline, configs)
    if on and all(off):
        phases = phase_summary(on)
        simulate_s = phases["simulate_s"]["value"]
        cycles = traced.sim_cycles
        metrics.update({
            "kernel.host_ns_per_step": (
                simulate_s * 1e9 / metrics["kernel.steps"]
            ),
            "kernel.host_ns_per_cycle": simulate_s * 1e9 / cycles,
            "apps.validate_s": phases["validate_s"]["value"],
            "system.build_s": phases["build_s"]["value"],
            "system.load_s": phases["load_s"]["value"],
            "telemetry.overhead_ratio": (
                simulate_s / phase_summary(off[0])["simulate_s"]["value"]
                if off else 1.0
            ),
            "scale.ns_per_tile_cycle": (
                simulate_s * 1e9 / (cycles * workload.config.n_nodes)
            ),
            "trace.overhead_ratio": (
                traced.total_s / phases["total_s"]["value"]
            ),
        })
    return {
        "gate": gate.summary(),
        "per_layer": {name: {"value": v} for name, v in metrics.items()},
    }
