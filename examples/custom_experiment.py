"""Writing a new experiment on the sweep service, end to end.

Everything a new study needs is three small pieces:

1. an *app driver* — a module-level ``(config, params) -> dict`` callable
   (module-level so every executor backend can pickle it by reference);
2. a ``build_space(full)`` hook returning a declarative
   :class:`~repro.dse.space.SweepSpace` — named axes over the
   architecture config and/or the app's params dataclass;
3. a ``summarize(run)`` hook that reads the space's shape back from the
   results (``axis``/``grouped``/``get``) and renders the report.

Registering the pair yields a CLI-shaped experiment that inherits the
whole service for free: process-pool execution, resumable schema-hashed
caching (kill it mid-sweep, rerun, only pending points recompute),
bounded retries, and progress reporting.

Run with::

    python examples/custom_experiment.py
"""

from __future__ import annotations

import tempfile

from repro.apps.collective_bench import CollectiveBenchParams, run_collective_bench
from repro.dse.registry import ExperimentReport, ExperimentRun, register_experiment
from repro.dse.report import format_table
from repro.dse.space import Axis, SweepSpace
from repro.system.config import SystemConfig


# -- 1. the app driver: module-level, returns a JSON-serializable dict ------


def barrier_cost_app(config: SystemConfig,
                     params: CollectiveBenchParams) -> dict:
    result = run_collective_bench(config, params)
    return {"cycles_per_op": result.cycles_per_op,
            "validated": result.validated}


# -- 2. the design space: named axes, declarative ---------------------------


def build_space(full: bool) -> SweepSpace:
    workers = (2, 4, 8, 15) if full else (2, 4, 8)
    return SweepSpace(
        name="barrier_cost",
        app=barrier_cost_app,
        app_id="barrier_cost",
        axes=(
            Axis("workers", workers, field="n_workers"),
            Axis("model", ("empi", "pure_sm"), target="params"),
        ),
        base_params=CollectiveBenchParams(collective="bcast", n_values=4,
                                          repeats=2),
    )


# -- 3. the summary: one row per mesh size, the two models side by side -----


def summarize(run: ExperimentRun) -> ExperimentReport:
    rows = []
    for (w,), by_model in run.result().grouped("workers", across="model"):
        empi = by_model["empi"]["cycles_per_op"]
        sm = by_model["pure_sm"]["cycles_per_op"]
        rows.append([w, f"{empi:.0f}", f"{sm:.0f}", f"{sm / empi:.2f}x"])
    text = (
        "barrier_cost: 4-double broadcast, message path vs MPMMU path\n"
        + format_table(["workers", "empi", "pure_sm", "sm/empi"], rows)
    )
    return ExperimentReport(experiment="barrier_cost",
                            full_scale=run.full, text=text, rows=rows)


experiment = register_experiment(
    "barrier_cost",
    "Example: broadcast cost over mesh size, both programming models",
    build_space, summarize,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        # First run computes every point (process pool, auto-sized)...
        report = experiment(full=False, cache_dir=cache_dir, progress=True)
        print(report.text)
        print(f"[first run: {report.wall_seconds:.1f}s]")
        # ...the rerun is served entirely from the warm cache.
        report = experiment(full=False, cache_dir=cache_dir)
        print(f"[cached rerun: {report.wall_seconds:.1f}s]")


if __name__ == "__main__":
    main()
