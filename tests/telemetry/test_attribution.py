"""Cycle attribution: conservation, determinism, critical paths, schema.

``SMOKE_WORKLOADS`` are the golden store's ``smoke`` pins
(``tests/goldens.py``): nine runs over both traffic shapes — the Jacobi
kernels guard the memory system (cache/bridge/MPMMU path), the
collectives the communication layer (TIE streams, the DMA engine and NoC
multicast, the fault layer's recovery, the chiplet package) — each held
to its exact cycles and, on the same run, to ledger conservation: each
tile's cycle partition sums to the elapsed cycles **bit-exactly**.
Telemetry and attribution only observe: their runs take the clean run's
cycles.  The rest covers the extractor on the isolated 8w allreduce
workloads (tree / ring / hw must each name a bounding hop whose path
telescopes to the measured latency), double-run determinism of the full
report, and the schema validator the CI observability-smoke job runs.
"""

from __future__ import annotations

import copy
import sys
from functools import cache, partial
from pathlib import Path

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.empi.collectives import ReduceOp, combine_cost, make_comm
from repro.faults import FaultPlan
from repro.kernel.trace import CP_ENTER, CP_EXIT, CP_HOP, EventLog
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.telemetry.attribution import (
    LEDGER_CLASSES,
    AttributionError,
    aggregate_ledger,
    attribution_summary,
    build_report,
    check_conservation,
    critical_path,
    critical_paths,
    extract_ops,
    render_report,
)
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.workloads import run_trace_workload
from tests.goldens import check

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
from validate_report import validate_report  # noqa: E402

_8W = {"n_workers": 8, "cache_size_kb": 16}
_DMA_8W = {**_8W, "dma_tx_queue_depth": 4}


def _jacobi(config: dict, **params):
    return partial(run_jacobi, SystemConfig(**config), JacobiParams(**params))


def _collective(config: dict, collective: str, algorithm: str, n_values: int,
                repeats: int):
    return partial(run_collective_bench, SystemConfig(**config),
                   CollectiveBenchParams(collective=collective, model="empi",
                                         algorithm=algorithm,
                                         n_values=n_values, repeats=repeats))


#: name -> runner returning a validated result; its golden is the
#: ``total_cycles`` plus ``iteration_cycles`` (Jacobi) or ``op_cycles``
#: (collectives).
SMOKE_WORKLOADS = {
    "reference_8w16kb_n30": _jacobi(_8W, n=30, iterations=3, warmup=1),
    "small_2w4kb_n16": _jacobi({"n_workers": 2, "cache_size_kb": 4},
                               n=16, iterations=3, warmup=1),
    "saturated_mpmmu_8w16kb_wt_n16": _jacobi({**_8W, "cache_policy": "wt"},
                                             n=16, iterations=2, warmup=0),
    # ``faults=None`` (the default): the fault layer off costs nothing.
    "collective_allreduce_8w_tree": _collective(_8W, "allreduce", "tree", 16, 4),
    # The hardware collective engine: DMA TX queue + NoC multicast.
    "multicast_bcast_8w": _collective(_DMA_8W, "bcast", "hw", 16, 4),
    # Long vectors over the ring on the engine path (neighbour multicast
    # descriptors + qreduce accumulate-on-receive, segment arithmetic).
    "ring_allreduce_8w_long": _collective(_DMA_8W, "allreduce", "ring", 256, 2),
    # 2% seeded flit loss: CRC drops, NACK/retransmit rounds, credit
    # probes, under the injector's default no-progress watchdog.
    "lossy_allreduce_8w_tree": _collective(
        {**_8W, "faults": FaultPlan(seed=3, drop_rate=0.02)},
        "allreduce", "tree", 16, 4,
    ),
    # 4 compute chiplets of 2x2 around the IO hub, serialized links, the
    # hierarchical schedule (intra-chiplet ring + gateway tree).
    "chiplet_allreduce_16w_hier": _collective(
        {"n_workers": 16, "cache_size_kb": 16, "topology_kind": "chiplet",
         "chiplets": 4, "chiplet_grid": (2, 2), "chiplet_link_latency": 4,
         "chiplet_link_width": 2},
        "allreduce", "hier", 16, 2,
    ),
    # Metric sampler, event tracer and NoC spatial counters all recording.
    "telemetry_allreduce_8w_tree": _collective(
        {**_8W, "telemetry": TelemetryConfig(sample_interval=1024)},
        "allreduce", "tree", 16, 4,
    ),
}
PIN_KEYS = tuple(SMOKE_WORKLOADS)


def golden_of(result) -> dict:
    return {field: getattr(result, field)
            for field in ("total_cycles", "iteration_cycles", "op_cycles")
            if hasattr(result, field)}


def measure_pins() -> dict:
    return {name: golden_of(runner()) for name, runner in SMOKE_WORKLOADS.items()}


def _run_captured(runner):
    captured = {}
    result = runner(
        observer=lambda system: captured.setdefault("system", system)
    )
    return captured["system"], result


@cache
def smoke_run(name: str):
    """(system, result) of one golden workload, run once per session."""
    return _run_captured(SMOKE_WORKLOADS[name])


# -- the golden workloads: cycles and conservation on one run --------------------


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_ledger_conservation_on_golden_workloads(name):
    """Each golden workload — both models, faults on and off — takes its
    pinned cycles, and its per-tile state sums equal them exactly."""
    system, result = smoke_run(name)
    assert result.validated
    check("smoke", {name: golden_of(result)})
    cycles = system.sim.cycle
    tiles = check_conservation(system)  # raises AttributionError if inexact
    assert len(tiles) == len(system.nodes)
    for tile in tiles:
        assert sum(tile[cls] for cls in LEDGER_CLASSES) == cycles
        assert tile["total"] == cycles
    aggregate = aggregate_ledger(tiles)
    assert aggregate["total"] == cycles * len(tiles)


def test_telemetry_and_attribution_are_timing_neutral():
    """The telemetry run's cycles and the attribution run's cycles equal
    the clean run's, while the first records samples and trace events and
    the second critical paths that telescope (its ``cp`` events are
    zero-cycle ops)."""
    __, clean = smoke_run("collective_allreduce_8w_tree")
    __, telemetry = smoke_run("telemetry_allreduce_8w_tree")
    system, attributed = _run_captured(_collective(
        {**_8W, "telemetry": TelemetryConfig(sample_interval=1024,
                                             attribution=True)},
        "allreduce", "tree", 16, 4,
    ))
    assert attributed.validated
    assert golden_of(telemetry) == golden_of(attributed) == golden_of(clean)
    summary = telemetry.stats["telemetry"]
    assert summary["samples"] > 0
    assert summary["trace_events"] > 0
    paths = critical_paths(system.events, system.rank_to_node)
    assert len(paths) == 4  # one per repeat
    for path in paths:
        assert sum(edge["cycles"] for edge in path["edges"]) == path["latency"]


def test_conservation_check_rejects_a_cooked_ledger():
    """The check is real: a ledger that does not sum to the elapsed
    cycles raises instead of silently misattributing."""
    system, __ = run_trace_workload("allreduce-8w-tree")
    node = system.nodes[0]
    original = node.cycle_ledger

    def cooked(end_cycle):
        ledger = original(end_cycle)
        ledger["compute"] += 1
        return ledger

    node.cycle_ledger = cooked
    try:
        with pytest.raises(AttributionError, match="rank 0 ledger sums"):
            check_conservation(system)
    finally:
        node.cycle_ledger = original


# -- critical paths on the isolated 8w allreduces --------------------------------


@pytest.mark.parametrize(
    "workload", ["allreduce-8w-tree", "allreduce-8w-ring", "allreduce-8w-hw"]
)
def test_allreduce_critical_paths_telescope_and_name_a_hop(workload):
    """The ISSUE acceptance point: for tree, ring and hw allreduce at 8w
    the analyzer names the bounding hop and the per-edge cycles sum to
    the measured op latency exactly."""
    system, result = run_trace_workload(workload)
    assert result.validated
    paths = critical_paths(system.events, system.rank_to_node)
    assert len(paths) == 4  # one per benchmark repeat
    for path in paths:
        assert path["ranks"] == 8
        assert path["latency"] == path["end"] - path["start"]
        assert sum(edge["cycles"] for edge in path["edges"]) == path["latency"]
        bound = path["bound_hop"]
        assert bound is not None and bound["kind"] == "xfer"
        assert any(
            edge["from_rank"] == bound["from_rank"]
            and edge["to_rank"] == bound["to_rank"]
            and edge["cycles"] == bound["cycles"]
            for edge in path["edges"]
        )
        for edge in path["edges"]:
            assert edge["to_cycle"] - edge["from_cycle"] == edge["cycles"]
            assert edge["cycles"] >= 0 and edge["slack"] >= 0


def _tree_reduce_hops(blocking):
    """Per-rank hop rows and exit cycle of one 5w tree reduce at root 2."""
    n_workers, n_values, root = 5, 4, 2

    def factory(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "tree", max_values=n_values)
            mine = [rank + 0.25 * i for i in range(n_values)]
            yield from comm.barrier()
            if blocking:
                yield from comm.reduce(root, mine)
            else:
                request = yield from comm.ireduce(root, mine)
                yield from comm.wait(request)
            yield from comm.barrier()
        return program

    system = MedeaSystem(SystemConfig(
        n_workers=n_workers, cache_size_kb=2,
        telemetry=TelemetryConfig(attribution=True),
    ))
    system.load_programs([factory(r) for r in range(n_workers)])
    system.run(max_cycles=1_000_000)
    (ranks,) = extract_ops(system.events, system.rank_to_node).values()
    cost = combine_cost(system.context_for(0).cost, n_values, ReduceOp.SUM)
    return ranks, cost


def test_tree_reduce_hops_agree_between_blocking_and_nonblocking():
    """One body serves both paths, so both emit the same hop sequence,
    and a ``rcv`` hop is stamped at receive completion — before the
    combine it feeds — not after it."""
    blocking, cost = _tree_reduce_hops(blocking=True)
    nonblocking, __ = _tree_reduce_hops(blocking=False)
    for ranks in (blocking, nonblocking):
        assert sum(len(entry["hops"]) for entry in ranks.values()) == 8
        for entry in ranks.values():
            # Every receive's combine (``cost`` cycles) fits before the
            # rank's next event: the hop cannot sit after the combine.
            cycles = [cycle for cycle, __, __ in entry["hops"]]
            following = cycles[1:] + [entry["end"]]
            for (cycle, kind, __), nxt in zip(entry["hops"], following):
                if kind == "rcv":
                    assert cycle + cost <= nxt
    assert {
        rank: [(kind, peer) for __, kind, peer in entry["hops"]]
        for rank, entry in blocking.items()
    } == {
        rank: [(kind, peer) for __, kind, peer in entry["hops"]]
        for rank, entry in nonblocking.items()
    }


#: Two workers behind the MPMMU: rank r sits at node r + 1.
RANK_TO_NODE = {0: 1, 1: 2}


def test_extractor_on_a_synthetic_op():
    """Hand-built events: rank 1 starts late, receives from rank 0, ends
    last — the binding walk reaches rank 0's start (the global start, so
    no skew edge) through the snd->rcv transfer, telescoping to 60."""
    log = EventLog()
    log.emit(100, 1, CP_ENTER, "op#1")
    log.emit(110, 2, CP_ENTER, "op#1")
    log.emit(120, 1, CP_HOP, "op#1", ("snd", 1))
    log.emit(150, 2, CP_HOP, "op#1", ("rcv", 0))
    log.emit(125, 1, CP_EXIT, "op#1")
    log.emit(160, 2, CP_EXIT, "op#1")
    ops = extract_ops(log, RANK_TO_NODE)
    assert set(ops) == {"op#1"}
    path = critical_path("op#1", ops["op#1"])
    assert path["latency"] == 60
    assert path["bound_hop"]["from_rank"] == 0
    assert path["bound_hop"]["to_rank"] == 1
    kinds = [edge["kind"] for edge in path["edges"]]
    assert kinds == ["local", "xfer", "local"]
    assert sum(edge["cycles"] for edge in path["edges"]) == 60


def test_extractor_ignores_incomplete_ops():
    log = EventLog()
    log.emit(10, 1, CP_ENTER, "op#1")  # never exits
    assert critical_paths(log, RANK_TO_NODE) == []
    ops = extract_ops(log, RANK_TO_NODE)
    assert critical_path("op#1", ops["op#1"]) is None


# -- double-run determinism ------------------------------------------------------


def test_attribution_report_is_deterministic():
    """Two runs of the same workload produce byte-identical reports."""
    first_system, __ = run_trace_workload("cg-tiny")
    second_system, __ = run_trace_workload("cg-tiny")
    first = build_report(first_system, workload="cg-tiny")
    second = build_report(second_system, workload="cg-tiny")
    assert first == second
    assert render_report(first) == render_report(second)


# -- the report and its validator ------------------------------------------------


@pytest.fixture(scope="module")
def tree_report():
    system, result = run_trace_workload("allreduce-8w-tree")
    return build_report(system, workload="allreduce-8w-tree"), system


def test_report_passes_the_schema_validator(tree_report):
    report, __ = tree_report
    summary = validate_report(report)
    assert summary["cycles"] == report["cycles"]
    assert summary["tiles"] == 8
    assert summary["critical_paths"] == 4


def test_report_survives_json_round_trip(tree_report):
    import json

    report, __ = tree_report
    round_tripped = json.loads(json.dumps(report))
    validate_report(round_tripped)


def test_validator_rejects_broken_reports(tree_report):
    report, __ = tree_report

    broken = copy.deepcopy(report)
    broken["ledger"]["tiles"][0]["compute"] += 1
    with pytest.raises(ValueError, match="conservation violated"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["critical_paths"][0]["latency"] += 1
    with pytest.raises(ValueError, match="does not telescope"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["schema"] = "medea.attribution/0"
    with pytest.raises(ValueError, match="schema mismatch"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["stalls"].append(
        {"rank": 99, "class": "wait_msg", "cycles": 1, "share": 0.0,
         "context": ""}
    )
    with pytest.raises(ValueError, match="unknown rank"):
        validate_report(broken)


def test_render_report_names_the_ledger_and_paths(tree_report):
    report, __ = tree_report
    text = render_report(report)
    assert "where the cycles went" in text
    assert "critical paths:" in text
    assert "allreduce[tree]#1" in text
    assert "bound by rank" in text


def test_attribution_summary_matches_the_full_report(tree_report):
    report, system = tree_report
    summary = attribution_summary(system)
    assert summary["cycles"] == report["cycles"]
    assert summary["aggregate"] == report["ledger"]["aggregate"]
    assert summary["top_stall"] is not None
    assert summary["top_stall"]["class"] in LEDGER_CLASSES
