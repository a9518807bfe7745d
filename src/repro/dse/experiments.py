"""Experiment definitions: one registered entry point per paper artifact.

Every experiment is an :class:`~repro.dse.registry.Experiment` in
:data:`~repro.dse.registry.REGISTRY`, built from two hooks:
``build_space(full)`` declares its design space as one or more
:class:`~repro.dse.space.SweepSpace` objects, and ``summarize(run)``
renders the executed results into an
:class:`~repro.dse.registry.ExperimentReport` with the same series the
paper plots.  The sweep service (:mod:`repro.dse.executor`) supplies the
pool wiring, resumable schema-hashed caching, retries, progress and the
numerical-validation check for all of them.

An experiment's shape — axis values, variant labels, prune rule, base
parameters, and what ``full`` changes — is written once, in its
``_build_*`` hook.  A ``_summarize_*`` hook restates none of it: it reads
labels from ``results.axis(...)``, rows from ``results.grouped(...)`` and
parameters from ``results.space.base_params``, so a changed axis cannot
leave a report iterating the old one.

Scale control: ``full=False`` (default) runs a reduced grid that finishes
in minutes on a laptop; ``full=True`` reproduces the paper's exact axes
(the 168-point sweep per problem size); ``MEDEA_FULL=1`` selects it from
the environment.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from repro.apps.cg import CgParams, run_cg
from repro.apps.collective_bench import (
    COLLECTIVES,
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams
from repro.apps.matmul import MatmulParams, run_matmul
from repro.apps.stream import StreamParams, run_stream
from repro.apps.synthetic import SyntheticParams, run_synthetic_point
from repro.dse.area import AreaModel
from repro.dse.pareto import FrontPoint, kill_rule_prune, pareto_front
from repro.dse.registry import (
    REGISTRY,
    ExperimentReport,
    ExperimentRun,
    full_scale_requested,
    register_experiment,
)
from repro.dse.report import ascii_plot, format_table
from repro.dse.runner import jacobi_app
from repro.dse.space import Axis, SweepSpace, Variant, jacobi_sweep_space
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from repro.telemetry.heatmap import render_noc_report

#: Default location of the sweep cache and rendered reports.  The CLI
#: points every experiment at one ``--out`` directory, so the whole
#: figure pipeline shares a single warm cache: the speedup-vs-area
#: figures reuse the execution-time sweeps, and repeated invocations
#: reuse everything.
DEFAULT_RESULTS_DIR = Path("results")


def _scale_note(full: bool, detail: str) -> str:
    if full:
        return "scale: FULL (paper axes)\n"
    return f"scale: reduced for quick runs ({detail}); MEDEA_FULL=1 for paper axes\n"


# ---------------------------------------------------------------------------
# App drivers: module-level (config, params) -> JSON payload callables,
# picklable by reference so every executor backend can run them.
# ---------------------------------------------------------------------------


def collective_bench_app(config: SystemConfig,
                         params: CollectiveBenchParams) -> dict:
    result = run_collective_bench(config, params)
    return {
        "cycles_per_op": result.cycles_per_op,
        "total_cycles": result.total_cycles,
        "validated": result.validated,
    }


def cg_app(config: SystemConfig, params: CgParams) -> dict:
    result = run_cg(config, params)
    return {
        "total_cycles": result.total_cycles,
        "solve_cycles": result.solve_cycles,
        "overlap_efficiency": result.overlap_efficiency,
        # A CG point is good when it matches the reference bit for bit
        # *and* the residual norm went down.
        "validated": result.validated and result.converged,
    }


def matmul_app(config: SystemConfig, params: MatmulParams) -> dict:
    result = run_matmul(config, params)
    return {
        "total_cycles": result.total_cycles,
        "reduce_cycles": result.reduce_cycles,
        "validated": result.validated,
    }


def stream_app(config: SystemConfig, params: StreamParams) -> dict:
    result = run_stream(config, params)
    return {
        "cycles_per_block": result.cycles_per_block,
        "validated": result.validated,
    }


def synthetic_app(config: SystemConfig, params: SyntheticParams) -> dict:
    del config  # a bare-fabric experiment: no PEs, no memory system
    stats = run_synthetic_point(params)
    return {
        "offered_rate": stats.offered_rate,
        "mean_latency": stats.mean_latency,
        "max_latency": stats.max_latency,
        "p99_latency_bound": stats.p99_latency_bound,
        "deflections_per_flit": stats.deflections_per_flit,
        "throughput": stats.throughput,
        "all_delivered": stats.all_delivered,
        # Plain lists/dicts: rides the JSON result cache unmodified.
        "spatial": stats.spatial,
    }


# ---------------------------------------------------------------------------
# Figures 6 and 8: execution time vs cores / cache size / policy
# ---------------------------------------------------------------------------


#: The two execution-time sweeps behind Figs. 6-9: (grid size, cache
#: sizes) at the paper's scale and at the quick scale.
_JACOBI_SWEEPS = {
    "fig6": ((60, (2, 4, 8, 16, 32, 64)), (30, (2, 8, 32))),
    "fig8": ((30, (2, 4, 8, 16, 32)), (16, (2, 4, 8))),
}


def _execution_time_space(sweep: str, policies: tuple[str, ...],
                          full: bool) -> SweepSpace:
    """One of the two Jacobi sweeps, at the scale ``full`` selects.

    The space is named after the sweep and its grid size, not after the
    figure that asks for it, so Fig. 7 finds Fig. 6's points (and Fig. 9
    Fig. 8's) in a shared cache directory.
    """
    size, caches = _JACOBI_SWEEPS[sweep][0 if full else 1]
    return jacobi_sweep_space(
        name=f"{sweep}_n{size}",
        workers=tuple(range(2, 16)) if full else (2, 4, 8, 15),
        cache_sizes_kb=caches,
        policies=policies,
        params=JacobiParams(n=size, iterations=3, warmup=1),
    )


def _summarize_execution_time(experiment: str, paper_fig: int,
                              run: ExperimentRun) -> ExperimentReport:
    results = run.result()
    size = results.space.base_params.n
    # Point order is cores, then cache size, then policy: one table row
    # per core count, one column (and one plotted series) per cache/policy.
    series: dict[str, list[tuple[float, float]]] = {}
    cells: dict[int, list[str]] = {}
    for outcome in results.outcomes:
        config = outcome.item.config
        cycles = outcome.payload["cycles_per_iteration"]
        label = f"{config.cache_size_kb}kB${config.policy.value.upper()}"
        series.setdefault(label, []).append((config.n_workers, cycles))
        cells.setdefault(config.n_workers, []).append(f"{cycles:.0f}")
    header = ["cores"] + list(series)
    rows = [[cores, *row] for cores, row in cells.items()]
    text = (
        f"{experiment}: Jacobi {size}x{size}, cycles per iteration after "
        f"warm-up\n"
        + _scale_note(
            run.full,
            f"{size}x{size}, {len(results.axis('workers'))} core counts",
        )
        + format_table(header, rows)
        + "\n"
        + ascii_plot(
            series,
            x_label="worker cores",
            y_label="cycles/iteration",
            title=f"{experiment}: execution time vs cores "
                  f"(compare paper Fig. {paper_fig})",
        )
    )
    return ExperimentReport(
        experiment=experiment, full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "fig6",
    "Fig. 6: 60x60 Jacobi execution time vs cores/cache/policy",
    partial(_execution_time_space, "fig6", ("wb", "wt")),
    partial(_summarize_execution_time, "fig6", 6),
)
register_experiment(
    "fig8",
    "Fig. 8: 30x30 Jacobi execution time, write-back caches",
    partial(_execution_time_space, "fig8", ("wb",)),
    partial(_summarize_execution_time, "fig8", 8),
)


# ---------------------------------------------------------------------------
# Figures 7 and 9: optimal speedup vs chip area (Pareto + kill rule)
# ---------------------------------------------------------------------------


def _speedup_area_space(sweep: str, full: bool) -> SweepSpace:
    """The execution-time sweep ``sweep`` again — a cache hit if that
    figure ran first — plus WT points at full scale: the optimum may pick
    either policy.
    """
    return _execution_time_space(
        sweep, ("wb", "wt") if full else ("wb",), full
    )


def _summarize_speedup_area(experiment: str, paper_fig: int,
                            run: ExperimentRun) -> ExperimentReport:
    results = run.result()
    size = results.space.base_params.n
    area_model = AreaModel()
    candidates = [
        (outcome.item.config, outcome.payload["cycles_per_iteration"],
         area_model.chip_area(outcome.item.config))
        for outcome in results.outcomes
    ]
    # Speedup baseline: the smallest-area architecture of the sweep.
    baseline_config, base_cycles, baseline_area = min(
        candidates, key=lambda item: item[2]
    )
    points = [
        FrontPoint(
            area_mm2=area,
            speedup=base_cycles / cycles,
            label=f"{config.n_workers}P_{config.cache_size_kb}k$"
                  f"{'_WT' if config.policy.value == 'wt' else ''}",
        )
        for config, cycles, area in candidates
    ]
    front = pareto_front(points)
    optimal = kill_rule_prune(front)

    rows = [
        [f"{p.area_mm2:.2f}", f"{p.speedup:.2f}", p.label,
         "kept" if p in optimal else "pareto-only"]
        for p in front
    ]
    series = {
        "pareto": [(p.area_mm2, p.speedup) for p in front],
        "kill-rule": [(p.area_mm2, p.speedup) for p in optimal],
    }
    text = (
        f"{experiment}: optimal speedup vs chip area, Jacobi {size}x{size}\n"
        + _scale_note(run.full, f"{size}x{size}")
        + f"speedup baseline: {baseline_config.label()} at "
          f"{baseline_area:.2f} mm^2 "
          f"({base_cycles:.0f} cycles/iter)\n"
        + format_table(["area_mm2", "speedup", "config", "kill rule"], rows)
        + "\n"
        + ascii_plot(
            series,
            x_label="chip area (mm^2)",
            y_label="speedup",
            title=f"{experiment}: speedup vs area "
                  f"(compare paper Fig. {paper_fig})",
        )
    )
    return ExperimentReport(
        experiment=experiment, full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "fig7",
    "Fig. 7: kill-rule speedup vs area for the 60x60 sweep",
    partial(_speedup_area_space, "fig6"),
    partial(_summarize_speedup_area, "fig7", 7),
)
register_experiment(
    "fig9",
    "Fig. 9: kill-rule speedup vs area for the 30x30 sweep",
    partial(_speedup_area_space, "fig8"),
    partial(_summarize_speedup_area, "fig9", 9),
)


# ---------------------------------------------------------------------------
# In-text comparison: hybrid vs sync-only vs pure shared memory
# ---------------------------------------------------------------------------


def _build_compare(full: bool) -> SweepSpace:
    return SweepSpace(
        name="compare_n60",
        app=jacobi_app,
        app_id="jacobi",
        axes=(
            Axis("workers",
                 tuple(range(2, 16, 2)) + (15,) if full else (6, 10),
                 field="n_workers"),
            Axis("model", ("hybrid_full", "hybrid_sync", "pure_sm"),
                 target="params"),
        ),
        base_config=SystemConfig(cache_size_kb=16, cache_policy="wb"),
        base_params=JacobiParams(n=60, iterations=3, warmup=1),
    )


def _summarize_compare(run: ExperimentRun) -> ExperimentReport:
    """Section III's programming-model comparison on the 60x60 problem.

    Paper claims: hybrid (full MP) beats pure shared memory by ~2x at 6
    cores/16 kB growing past 5x at higher core counts; the sync-only
    hybrid recovers 2x-2.8x of that; full vs sync-only differ by 2-20%
    when the miss rate is relevant.
    """
    results = run.result()
    space = results.space
    rows = []
    series: dict[str, list[tuple[float, float]]] = {
        "sm_over_full": [], "sm_over_sync": [], "sync_over_full": [],
    }
    for (n_workers,), by_model in results.grouped("workers", across="model"):
        full_c = by_model["hybrid_full"]["cycles_per_iteration"]
        sync_c = by_model["hybrid_sync"]["cycles_per_iteration"]
        sm_c = by_model["pure_sm"]["cycles_per_iteration"]
        rows.append([
            n_workers, f"{full_c:.0f}", f"{sync_c:.0f}", f"{sm_c:.0f}",
            f"{sm_c / full_c:.2f}x", f"{sm_c / sync_c:.2f}x",
            f"{sync_c / full_c:.2f}x",
        ])
        series["sm_over_full"].append((n_workers, sm_c / full_c))
        series["sm_over_sync"].append((n_workers, sm_c / sync_c))
        series["sync_over_full"].append((n_workers, sync_c / full_c))

    n = space.base_params.n
    text = (
        f"compare: programming models on Jacobi {n}x{n}, "
        f"{space.base_config.cache_size_kb} kB "
        f"{space.base_config.policy.value.upper()} caches\n"
        + _scale_note(run.full,
                      f"{len(results.axis('workers'))} core counts")
        + format_table(
            ["cores", "hybrid_full", "hybrid_sync", "pure_sm",
             "sm/full", "sm/sync", "sync/full"],
            rows,
        )
        + "\npaper targets: sm/full 2x at 6 cores -> >5x at high counts; "
          "sm/sync in 2x-2.8x; sync/full within 2-20% at low counts\n"
    )
    return ExperimentReport(
        experiment="compare", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "compare",
    "Section III: hybrid vs sync-only vs pure-SM on 60x60 Jacobi",
    _build_compare, _summarize_compare,
)


# ---------------------------------------------------------------------------
# Collectives and the collective-heavy workloads (matmul, stream)
# ---------------------------------------------------------------------------


def _build_collectives(full: bool) -> SweepSpace:
    return SweepSpace(
        name="collectives",
        app=collective_bench_app,
        app_id="collective_bench",
        axes=(
            Axis("workers", (2, 4, 8, 15) if full else (4, 8),
                 field="n_workers"),
            Axis("collective", tuple(COLLECTIVES), target="params"),
            Axis("algorithm", ("linear", "tree"), target="params"),
            Axis("model", ("empi", "pure_sm"), target="params"),
        ),
        base_params=CollectiveBenchParams(n_values=16 if full else 8,
                                          repeats=8 if full else 4),
        # Scatter/gather are root-centric by definition: linear only.
        prune=lambda coords: (
            coords["collective"] in ("scatter", "gather")
            and coords["algorithm"] == "tree"
        ),
    )


def _summarize_collectives(run: ExperimentRun) -> ExperimentReport:
    """Cycles per collective op: algorithm x programming model x mesh size.

    The per-collective generalization of the paper's barrier comparison:
    broadcast / reduce / allreduce / scatter / gather, each timed over
    the eMPI message path and the shared-memory MPMMU path.
    """
    results = run.result()
    params = results.space.base_params
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (n_workers, collective, algorithm), by_model in results.grouped(
        "workers", "collective", "algorithm", across="model"
    ):
        cycles = {model: payload["cycles_per_op"]
                  for model, payload in by_model.items()}
        for model, value in cycles.items():
            series.setdefault(
                f"{collective}_{algorithm}_{model}", []
            ).append((n_workers, value))
        rows.append([
            collective, algorithm, n_workers,
            f"{cycles['empi']:.0f}", f"{cycles['pure_sm']:.0f}",
            f"{cycles['pure_sm'] / cycles['empi']:.2f}x",
        ])
    text = (
        f"collectives: cycles per op, {params.n_values} doubles, mean of "
        f"{params.repeats} reps\n"
        + _scale_note(run.full,
                      f"{len(results.axis('workers'))} mesh sizes")
        + format_table(
            ["collective", "algorithm", "workers", "empi", "pure_sm",
             "sm/empi"],
            rows,
        )
        + "\npaper context (Table 1 generalized): every SM column is "
          "serialized MPMMU traffic; the hybrid column never touches it\n"
    )
    return ExperimentReport(
        experiment="collectives", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "collectives",
    "Collective ops: cycles/op over algorithm x model x mesh size",
    _build_collectives, _summarize_collectives,
)


def _build_matmul(full: bool) -> SweepSpace:
    n, tile = (12, 4) if full else (6, 2)
    return SweepSpace(
        name="matmul",
        app=matmul_app,
        app_id="matmul",
        axes=(
            Axis("workers", (2, 4, 8, 15) if full else (2, 4),
                 field="n_workers"),
            Axis("algorithm", ("linear", "tree"), target="params"),
            Axis("model", ("empi", "pure_sm"), target="params"),
        ),
        base_params=MatmulParams(n=n, tile=tile),
    )


def _summarize_matmul(run: ExperimentRun) -> ExperimentReport:
    """Tiled matmul: total and reduce-phase cycles per model/algorithm."""
    results = run.result()
    params = results.space.base_params
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (n_workers, algorithm), by_model in results.grouped(
        "workers", "algorithm", across="model"
    ):
        totals = {m: payload["total_cycles"] for m, payload in by_model.items()}
        reduces = {m: payload["reduce_cycles"] for m, payload in by_model.items()}
        for model, total in totals.items():
            series.setdefault(f"{model}_{algorithm}", []).append(
                (n_workers, total)
            )
        rows.append([
            n_workers, algorithm,
            totals["empi"], totals["pure_sm"],
            f"{totals['pure_sm'] / totals['empi']:.2f}x",
            reduces["empi"], reduces["pure_sm"],
            f"{reduces['pure_sm'] / reduces['empi']:.2f}x",
        ])
    text = (
        f"matmul: {params.n}x{params.n} tiled (tile={params.tile}), row "
        f"broadcast + partial-sum reduce\n"
        + _scale_note(
            run.full,
            f"{params.n}x{params.n}, "
            f"{len(results.axis('workers'))} mesh sizes",
        )
        + format_table(
            ["workers", "algorithm", "empi_total", "sm_total", "sm/empi",
             "empi_reduce", "sm_reduce", "reduce sm/empi"],
            rows,
        )
        + "\n"
        + ascii_plot(
            series, x_label="worker cores", y_label="total cycles",
            title="matmul: execution time vs cores, by model/algorithm",
        )
    )
    return ExperimentReport(
        experiment="matmul", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "matmul",
    "Tiled matmul: bcast + partial-sum reduce over both models",
    _build_matmul, _summarize_matmul,
)


def _build_stream(full: bool) -> SweepSpace:
    n_blocks, block_values = (16, 16) if full else (4, 8)
    return SweepSpace(
        name="stream",
        app=stream_app,
        app_id="stream",
        axes=(
            Axis("workers", (2, 4, 8) if full else (2, 4),
                 field="n_workers"),
            Axis("model", ("empi", "pure_sm"), target="params"),
        ),
        base_params=StreamParams(n_blocks=n_blocks,
                                 block_values=block_values),
    )


def _summarize_stream(run: ExperimentRun) -> ExperimentReport:
    """Stream pipeline: cycles per block, TIE streams vs SM mailboxes."""
    results = run.result()
    params = results.space.base_params
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (n_workers,), by_model in results.grouped("workers", across="model"):
        cycles = {model: payload["cycles_per_block"]
                  for model, payload in by_model.items()}
        for model, value in cycles.items():
            series.setdefault(model, []).append((n_workers, value))
        rows.append([
            n_workers,
            f"{cycles['empi']:.0f}", f"{cycles['pure_sm']:.0f}",
            f"{cycles['pure_sm'] / cycles['empi']:.2f}x",
        ])
    text = (
        f"stream: {params.n_blocks} blocks of {params.block_values} doubles "
        f"through a worker pipeline\n"
        + _scale_note(run.full,
                      f"{len(results.axis('workers'))} pipeline depths")
        + format_table(
            ["workers", "empi cyc/blk", "sm cyc/blk", "sm/empi"], rows
        )
        + "\npipeline depth = worker count; empi rides the TIE streams, "
          "pure_sm polls shared-memory mailboxes through the MPMMU\n"
    )
    return ExperimentReport(
        experiment="stream", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "stream",
    "Producer/consumer pipeline: TIE streams vs SM mailboxes",
    _build_stream, _summarize_stream,
)


def _build_cg(full: bool) -> SweepSpace:
    n, iterations = (128, 16) if full else (64, 10)
    return SweepSpace(
        name="cg",
        app=cg_app,
        app_id="cg",
        axes=(
            # The 8-worker reference mesh is the acceptance point; keep it
            # in every scale.
            Axis("workers", (2, 4, 8, 15) if full else (4, 8),
                 field="n_workers"),
            Axis("model", ("empi", "pure_sm"), target="params"),
            Axis("overlap", (False, True), target="params"),
        ),
        base_params=CgParams(n=n, iterations=iterations, algorithm="tree"),
    )


def _summarize_cg(run: ExperimentRun) -> ExperimentReport:
    """Conjugate gradient: the overlap-on/off sweep over both models.

    The architecture argument of the non-blocking layer, in one table:
    for each mesh size and programming model the solver runs blocking
    and overlapped, converging bit-identically all four ways, and the
    report shows the cycles saved plus the measured overlap efficiency
    (fraction of in-flight communication hidden behind compute).  The
    hybrid model has hardware to overlap with — the TIE streams while
    the core computes — while the pure-SM model must move every word
    with the core, which is exactly what the efficiency column shows.
    """
    results = run.result()
    params = results.space.base_params
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (n_workers, model), by_overlap in results.grouped(
        "workers", "model", across="overlap"
    ):
        blocking, overlapped = by_overlap[False], by_overlap[True]
        series.setdefault(f"{model}_blocking", []).append(
            (n_workers, blocking["total_cycles"])
        )
        series.setdefault(f"{model}_overlap", []).append(
            (n_workers, overlapped["total_cycles"])
        )
        rows.append([
            n_workers, model,
            blocking["total_cycles"], overlapped["total_cycles"],
            blocking["total_cycles"] - overlapped["total_cycles"],
            f"{blocking['total_cycles'] / overlapped['total_cycles']:.4f}x",
            f"{overlapped['overlap_efficiency']:.2f}",
        ])
    text = (
        f"cg: conjugate gradient, {params.n}-row tridiagonal SPD system, "
        f"{params.iterations} iterations\n"
        + _scale_note(
            run.full,
            f"n={params.n}, {len(results.axis('workers'))} mesh sizes",
        )
        + format_table(
            ["workers", "model", "blocking", "overlap", "saved",
             "speedup", "ovl eff"],
            rows,
        )
        + "\nhalo isend/irecv hide behind interior SpMV rows; the "
          "residual-norm iallreduce hides behind the x update.  All four "
          "variants per mesh converge bit-identically; 'ovl eff' is the "
          "fraction of in-flight communication cycles spent computing\n"
    )
    return ExperimentReport(
        experiment="cg", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "cg",
    "CG solver: compute/communication overlap on vs off, both models",
    _build_cg, _summarize_cg,
)


# ---------------------------------------------------------------------------
# Hardware collective engine vs software: the offload crossover
# ---------------------------------------------------------------------------


def _build_hw_collectives(full: bool) -> list[SweepSpace]:
    workers = (2, 4, 8, 15) if full else (4, 8)
    depths = (1, 2, 4, 8) if full else (1, 4)
    variants = (
        Variant("linear", params={"algorithm": "linear"}),
        Variant("tree", params={"algorithm": "tree"}),
        *(
            Variant(f"hw(q{depth})",
                    config={"dma_tx_queue_depth": depth},
                    params={"algorithm": "hw"})
            for depth in depths
        ),
        Variant("hw-uc",
                config={"dma_tx_queue_depth": depths[-1],
                        "noc_multicast": False},
                params={"algorithm": "hw"}),
    )
    main = SweepSpace(
        name="hw_collectives",
        app=collective_bench_app,
        app_id="collective_bench",
        axes=(
            Axis("workers", workers, field="n_workers"),
            Axis("collective", ("bcast", "allreduce"), target="params"),
            Axis("variant", variants),
        ),
        base_params=CollectiveBenchParams(model="empi", n_values=16,
                                          repeats=8 if full else 4),
    )
    long_variants = (
        Variant("tree", params={"algorithm": "tree"}),
        Variant("ring", params={"algorithm": "ring"}),
        Variant("hw-na",
                config={"dma_tx_queue_depth": depths[-1],
                        "dma_reduce_assist": False},
                params={"algorithm": "hw"}),
        Variant("hw",
                config={"dma_tx_queue_depth": depths[-1]},
                params={"algorithm": "hw"}),
        Variant("ring-hw",
                config={"dma_tx_queue_depth": depths[-1]},
                params={"algorithm": "ring"}),
    )
    long = SweepSpace(
        name="hw_collectives_long",
        app=collective_bench_app,
        app_id="collective_bench",
        axes=(
            Axis("workers", workers, field="n_workers"),
            Axis("variant", long_variants),
            Axis("length",
                 (16, 64, 256, 1024) if full else (16, 64, 256),
                 target="params", field="n_values"),
        ),
        base_params=CollectiveBenchParams(collective="allreduce",
                                          model="empi",
                                          repeats=4 if full else 2),
    )
    return [main, long]


def _summarize_hw_collectives(run: ExperimentRun) -> ExperimentReport:
    """Hardware collective engine vs software: the offload crossover.

    Sweeps bcast and allreduce over queue depth x algorithm x mesh size:
    the software baselines (``linear``/``tree``, no engine) against the
    ``hw`` algorithm (DMA TX queue + NoC multicast + reduction assist)
    at each queue depth, plus the equivalence-tested unicast-fallback
    point (``hw-uc``, engine on, fabric replication off).  A second
    table sweeps allreduce over vector length x mesh — the long-vector
    crossover: software ``tree`` vs software ``ring`` vs the engine
    paths, with the PR-4 engine (``hw-na``, reduction assist off, only
    the broadcast leg offloaded) as the hw-reduce-vs-sw-reduce
    comparison point.  Every point validates bit for bit against the
    combine-order references.
    """
    main, long = run.result(0), run.result(1)
    variants = main.axis("variant")
    hw_depths = [label for label in variants if label.startswith("hw(q")]

    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    crossover: dict[str, int] = {}
    for (w, collective), by_variant in main.grouped(
        "workers", "collective", across="variant"
    ):
        cycles = {variant: payload["cycles_per_op"]
                  for variant, payload in by_variant.items()}
        best_hw = min(cycles[label] for label in hw_depths)
        if best_hw < cycles["tree"]:
            crossover.setdefault(collective, w)
        rows.append(
            [collective, w]
            + [f"{cycles[k]:.0f}" for k in variants]
            + [f"{cycles['tree'] / best_hw:.2f}x"]
        )
        series.setdefault(f"{collective}_tree", []).append(
            (w, cycles["tree"])
        )
        series.setdefault(f"{collective}_hw", []).append((w, best_hw))
    # -- long-vector crossover: allreduce over vector length x mesh --------
    long_rows = []
    long_series: dict[str, list[tuple[float, float]]] = {}
    long_algos = long.axis("variant")
    ring_crossover: dict[int, int | None] = {}
    for (w, length), by_variant in long.grouped(
        "workers", "length", across="variant"
    ):
        cycles = {variant: payload["cycles_per_op"]
                  for variant, payload in by_variant.items()}
        ring_crossover.setdefault(w, None)
        if cycles["ring"] < cycles["tree"] and ring_crossover[w] is None:
            ring_crossover[w] = length
        long_rows.append(
            ["allreduce", w, length]
            + [f"{cycles[k]:.0f}" for k in long_algos]
            + [
                f"{cycles['tree'] / cycles['ring']:.2f}x",
                f"{cycles['hw-na'] / cycles['hw']:.2f}x",
            ]
        )
        long_series.setdefault(f"ring_{w}w", []).append(
            (length, cycles["ring"])
        )
        long_series.setdefault(f"tree_{w}w", []).append(
            (length, cycles["tree"])
        )
    crossings = ", ".join(
        f"{coll}: {f'from {crossover[coll]}w' if coll in crossover else 'never'}"
        for coll in main.axis("collective")
    )
    ring_crossings = ", ".join(
        f"{w}w: {'never' if length is None else f'from {length} doubles'}"
        for w, length in sorted(ring_crossover.items())
    )
    # Every engine point of the long table runs at the deepest queue.
    engine_depth = long.outcomes[-1].item.config.dma_tx_queue_depth
    text = (
        f"hw_collectives: cycles per op, "
        f"{main.space.base_params.n_values} doubles, mean of "
        f"{main.space.base_params.repeats} reps (empi model)\n"
        + _scale_note(
            run.full,
            f"{len(main.axis('workers'))} mesh sizes, "
            f"{len(hw_depths)} depths",
        )
        + format_table(
            ["collective", "workers", *variants, "tree/hw"], rows
        )
        + f"\nhw beats the software tree ({crossings}); 'hw-uc' is the "
          "unicast-fallback equivalence point (engine on, fabric "
          "replication off).  All points deliver bit-identical vectors; "
          "hw combines in the tree order.\n\n"
        + f"long-vector crossover: allreduce cycles/op over vector length "
          f"(mean of {long.space.base_params.repeats} reps; engine points "
          f"at queue depth {engine_depth})\n"
        + format_table(
            ["collective", "workers", "doubles", *long_algos,
             "tree/ring", "hw-na/hw"],
            long_rows,
        )
        + f"\nring beats tree ({ring_crossings}); 'hw-na' is the PR-4 "
          "engine (broadcast leg offloaded, reduce leg through processor "
          "ops) — the hw-reduce vs sw-reduce comparison; 'ring-hw' rides "
          "neighbour multicast descriptors + qreduce accumulate-on-"
          "receive.  ring combines in its own reference order, hw in the "
          "tree order; every point validates bit for bit.\n"
        + ascii_plot(
            series, x_label="worker cores", y_label="cycles/op",
            title="hw_collectives: hardware vs software crossover",
        )
        + ascii_plot(
            long_series, x_label="vector length (doubles)",
            y_label="cycles/op",
            title="hw_collectives: ring vs tree over vector length",
        )
    )
    return ExperimentReport(
        experiment="hw_collectives", full_scale=run.full, text=text,
        series={**series, **{f"long_{k}": v for k, v in long_series.items()}},
        rows=rows + long_rows,
    )


register_experiment(
    "hw_collectives",
    "HW collective engine vs software: offload + long-vector crossover",
    _build_hw_collectives, _summarize_hw_collectives,
)


# ---------------------------------------------------------------------------
# Chiplet-scale DSE: flat vs hierarchical collectives across packages
# ---------------------------------------------------------------------------


def _chiplet_packages(full: bool) -> tuple[tuple[str, dict], ...]:
    """(label, config overrides) per package point.

    Each package scales the off-die penalty with its size — more
    chiplets share a bigger, slower IO die, the way real SerDes-based
    packages degrade — so the axis reads as "how far off one mesh are
    we", not one knob at a time.
    """

    def package(chiplets: int, width: int, height: int,
                latency: int, serialization: int) -> tuple[str, dict]:
        workers = chiplets * width * height
        return (
            f"{chiplets}x({width}x{height})",
            {
                "topology_kind": "chiplet",
                "n_workers": workers,
                "chiplets": chiplets,
                "chiplet_grid": (width, height),
                "chiplet_link_latency": latency,
                "chiplet_link_width": serialization,
            },
        )

    if full:
        return (
            package(4, 2, 2, latency=8, serialization=2),
            package(8, 2, 2, latency=16, serialization=4),
            package(16, 2, 2, latency=32, serialization=4),
            package(8, 4, 2, latency=16, serialization=4),
        )
    return (
        package(4, 2, 2, latency=8, serialization=2),
        package(8, 2, 2, latency=16, serialization=4),
    )


def _build_chiplet_sweep(full: bool) -> SweepSpace:
    return SweepSpace(
        name="chiplet_sweep",
        app=collective_bench_app,
        app_id="collective_bench",
        axes=(
            Axis("package", tuple(
                Variant(label, config=overrides)
                for label, overrides in _chiplet_packages(full)
            )),
            # The two flat software schedules against the topology-aware
            # hierarchical one.
            Axis("algorithm", ("tree", "ring", "hier"), target="params"),
            Axis("length", (4, 8, 16, 64) if full else (4, 16),
                 target="params", field="n_values"),
        ),
        base_params=CollectiveBenchParams(collective="allreduce",
                                          model="empi",
                                          repeats=4 if full else 2),
    )


def _summarize_chiplet_sweep(run: ExperimentRun) -> ExperimentReport:
    """Where hierarchical collectives beat flat ones on chiplet packages.

    Sweeps allreduce over package (chiplet count x chiplet size, with
    off-die latency/serialization scaled to the package) x algorithm x
    vector length.  ``tree`` and ``ring`` are the flat schedules —
    topology-blind rank orders whose neighbour hops cross the IO die
    wherever the rank ring does; ``hier`` runs an intra-chiplet ring, a
    binomial tree across the chiplet gateways, and a broadcast back
    down.  The crossover table marks each cell's winner: hierarchical
    wins where per-hop off-die latency dominates (many chiplets, short
    vectors), flat ring wins where bandwidth does (long vectors slice
    into per-rank segments that amortize the off-die hops).  Every
    point validates bit for bit against its combine-order reference.
    """
    results = run.result()
    algorithms = results.axis("algorithm")
    package_workers = {
        outcome.coords["package"]: outcome.item.config.n_workers
        for outcome in results.outcomes
    }

    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    hier_wins: list[str] = []
    for (label, length), by_algorithm in results.grouped(
        "package", "length", across="algorithm"
    ):
        cycles = {algorithm: payload["cycles_per_op"]
                  for algorithm, payload in by_algorithm.items()}
        flat = {a: c for a, c in cycles.items() if a != "hier"}
        best_flat = min(flat, key=flat.get)
        winner = "hier" if cycles["hier"] < flat[best_flat] else best_flat
        if winner == "hier":
            hier_wins.append(f"{label}/{length}v")
        rows.append(
            [label, package_workers[label], length]
            + [f"{cycles[a]:.0f}" for a in algorithms]
            + [f"{flat[best_flat] / cycles['hier']:.2f}x", winner]
        )
        series.setdefault(f"hier_{label}", []).append(
            (length, cycles["hier"])
        )
        series.setdefault(f"ring_{label}", []).append(
            (length, cycles["ring"])
        )
    wins_text = (
        ", ".join(hier_wins) if hier_wins
        else "none at this scale (off-die hops too cheap)"
    )
    text = (
        f"chiplet_sweep: allreduce cycles/op across chiplet packages "
        f"(mean of {results.space.base_params.repeats} reps, empi model)\n"
        + _scale_note(
            run.full,
            f"{len(results.axis('package'))} packages, "
            f"{len(results.axis('length'))} lengths",
        )
        + format_table(
            ["package", "workers", "doubles", *algorithms,
             "flat/hier", "winner"],
            rows,
        )
        + f"\nhierarchical wins: {wins_text}.\n"
          "'flat/hier' compares hier against the better flat schedule; "
          "packages scale off-die latency/serialization with chiplet "
          "count (SerDes-based IO die).  Flat ring already places "
          "consecutive ranks within one chiplet, so only its "
          "group-boundary hops cross the IO die — hier has to beat "
          "that, not a strawman.\n"
        + ascii_plot(
            series, x_label="vector length (doubles)",
            y_label="cycles/op",
            title="chiplet_sweep: hierarchical vs flat ring",
        )
    )
    return ExperimentReport(
        experiment="chiplet_sweep", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "chiplet_sweep",
    "Chiplet packages: flat vs hierarchical collective crossover",
    _build_chiplet_sweep, _summarize_chiplet_sweep,
)


# ---------------------------------------------------------------------------
# NoC characterization
# ---------------------------------------------------------------------------


def _build_noc(full: bool) -> SweepSpace:
    return SweepSpace(
        name="noc",
        app=synthetic_app,
        app_id="synthetic",
        axes=(
            Axis("pattern", ("uniform", "hotspot"), target="params"),
            Axis("rate",
                 (0.02, 0.05, 0.1, 0.2, 0.3, 0.45) if full
                 else (0.05, 0.2, 0.45),
                 target="params"),
        ),
        base_params=SyntheticParams(cycles=4000 if full else 1500),
    )


def _summarize_noc(run: ExperimentRun) -> ExperimentReport:
    """Deflection-routing latency/throughput and outlier behaviour."""
    results = run.result()
    rates = results.axis("rate")
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for outcome in results.outcomes:
        pattern, stats = outcome.coords["pattern"], outcome.payload
        rows.append([
            pattern, f"{stats['offered_rate']:.2f}",
            f"{stats['mean_latency']:.1f}", stats["max_latency"],
            stats["p99_latency_bound"],
            f"{stats['deflections_per_flit']:.2f}",
            f"{stats['throughput']:.3f}",
            "yes" if stats["all_delivered"] else "NO",
        ])
        series.setdefault(pattern, []).append(
            (stats["offered_rate"], stats["mean_latency"])
        )
    text = (
        "noc: deflection routing under synthetic traffic (4x4 folded torus)\n"
        + _scale_note(
            run.full,
            f"{len(rates)} rates, {results.space.base_params.cycles} cycles",
        )
        + format_table(
            ["pattern", "rate", "mean_lat", "max_lat", "p99<=",
             "defl/flit", "thruput", "all delivered"],
            rows,
        )
        + "\npaper context (Sec. II-A): sporadic high-latency flits, no "
          "livelock observed; max/p99 vs mean quantifies the outliers\n"
        + ascii_plot(series, x_label="offered rate (flits/node/cycle)",
                     y_label="mean latency (cycles)",
                     title="noc: load-latency curve")
    )
    # Spatial heatmaps at the heaviest load: *where* the deflections and
    # stalls concentrate, per pattern (the ROADMAP item-2 attribution).
    heaviest = rates[-1]
    for pattern in results.axis("pattern"):
        spatial = results.get(pattern=pattern, rate=heaviest).get("spatial")
        if spatial is not None:
            text += (
                f"\n--- spatial view: {pattern} @ rate {heaviest:.2f} ---\n"
                + render_noc_report(spatial) + "\n"
            )
    return ExperimentReport(
        experiment="noc", full_scale=run.full, text=text, series=series,
        rows=rows,
    )


register_experiment(
    "noc",
    "Deflection-routed NoC alone: load/latency under synthetic traffic",
    _build_noc, _summarize_noc,
)


# ---------------------------------------------------------------------------
# Fault tolerance: reliable delivery under seeded faults
# ---------------------------------------------------------------------------


#: Every fault plan of the sweep draws from this seed.
_FAULT_SEED = 3


def _build_fault_sweep(full: bool) -> SweepSpace:
    def plan(label: str, **faults) -> Variant:
        return Variant(
            label, config={"faults": FaultPlan(seed=_FAULT_SEED, **faults)}
        )

    algorithms = (
        Variant("tree", params={"algorithm": "tree"}),
        Variant("ring", params={"algorithm": "ring"}),
        Variant("hw", config={"dma_tx_queue_depth": 4},
                params={"algorithm": "hw"}),
    )
    faults = (
        Variant("off", config={"faults": None}),
        plan("rate 0"),
        *(
            plan(f"drop {rate:g}", drop_rate=rate)
            for rate in ((0.005, 0.01, 0.02, 0.05) if full else (0.01, 0.05))
        ),
        plan("corrupt 0.01", corrupt_rate=0.01),
        plan("dead link", dead_links=((1, 1, 200),)),
    )
    return SweepSpace(
        name="fault_sweep",
        app=collective_bench_app,
        app_id="collective_bench",
        axes=(Axis("algorithm", algorithms), Axis("faults", faults)),
        base_config=SystemConfig(n_workers=8, topology_kind="mesh"),
        base_params=CollectiveBenchParams(collective="allreduce",
                                          model="empi", n_values=16,
                                          repeats=4 if full else 2),
    )


def _summarize_fault_sweep(run: ExperimentRun) -> ExperimentReport:
    """Reliable delivery under seeded faults: recovery overhead table.

    Sweeps allreduce on the reference 8-worker mesh over fault rate x
    algorithm (software ``tree``/``ring`` and the hardware engine path),
    asserting at every point that the delivered vectors are bit-identical
    to the fault-free combine-order reference — transient flit loss and
    corruption must be fully masked by the CRC + NACK/retransmit layer,
    at a cycle cost the table quantifies.  Three extra rows pin the
    protocol's edges: ``off`` (no fault layer — the golden baseline
    format), ``rate 0`` (reliable format on, nothing injected — the pure
    protocol overhead: wider flits, CRC stamping, credit traffic), and
    ``dead link`` (a permanently killed non-critical link mid-run — the
    deflection router's recomputed productive table must deliver, at
    degraded cycles, without a single lost value).
    """
    results = run.result()
    params = results.space.base_params
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for (algorithm,), by_faults in results.grouped(
        "algorithm", across="faults"
    ):
        baseline = by_faults["off"]["total_cycles"]
        for name, payload in by_faults.items():
            cycles = payload["total_cycles"]
            rows.append([
                "allreduce", algorithm, name, cycles,
                f"{cycles / baseline:.2f}x",
            ])
            if name.startswith("drop"):
                series.setdefault(algorithm, []).append(
                    (float(name.split()[1]), cycles / baseline)
                )
    n_drop_rates = sum(
        1 for name in results.axis("faults") if name.startswith("drop")
    )
    text = (
        f"fault_sweep: allreduce under seeded link faults, 8-worker mesh, "
        f"{params.n_values} doubles, {params.repeats} reps (empi model)\n"
        + _scale_note(run.full,
                      f"{n_drop_rates} drop rates, seed {_FAULT_SEED}")
        + format_table(
            ["collective", "algorithm", "faults", "cycles", "vs off"], rows
        )
        + "\nevery point delivered vectors bit-identical to the fault-free "
          "combine-order reference — transient drops and corruptions are "
          "fully repaired by CRC + NACK/retransmit; 'rate 0' is the pure "
          "protocol overhead (wide reliable flit format, CRC stamping, "
          "credit traffic); 'dead link' kills link 1->E at cycle 200 and "
          "the rerouted productive table still delivers every value.\n"
        + ascii_plot(
            series, x_label="drop rate", y_label="cycle overhead (x)",
            title="fault_sweep: recovery overhead vs fault rate",
        )
    )
    return ExperimentReport(
        experiment="fault_sweep", full_scale=run.full, text=text,
        series=series, rows=rows,
    )


register_experiment(
    "fault_sweep",
    "Allreduce under seeded faults: recovery overhead vs fault rate",
    _build_fault_sweep, _summarize_fault_sweep,
)


__all__ = [
    "DEFAULT_RESULTS_DIR",
    "REGISTRY",
    "ExperimentReport",
    "full_scale_requested",
]
