"""Miniature design-space exploration with Pareto + kill-rule pruning.

The paper's headline workflow (Figs. 7/9) in a few minutes: sweep core
count x cache size on a small Jacobi problem, attach the 65 nm area model,
prune to the Pareto front, apply the kill rule, and plot speedup vs area
with labelled optimal configurations.

Run with::

    python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.area import AreaModel
from repro.dse.executor import run_space
from repro.dse.pareto import FrontPoint, kill_rule_prune, pareto_front
from repro.dse.report import ascii_plot, format_table
from repro.dse.space import jacobi_sweep_space


def main() -> None:
    space = jacobi_sweep_space(
        "example_dse",
        workers=(1, 2, 4, 6, 8),
        cache_sizes_kb=(2, 8, 32),
        policies=("wb",),
        params=JacobiParams(n=20, iterations=3, warmup=1),
    )
    print(f"running {space.n_points} architecture points "
          f"(Jacobi 20x20, write-back)...")
    # run_space raises ValidationError if any point's grid is wrong.
    results = run_space(space, progress=True)

    area_model = AreaModel()
    candidates = [
        (outcome.item.config, outcome.payload["cycles_per_iteration"],
         area_model.chip_area(outcome.item.config))
        for outcome in results.outcomes
    ]
    baseline, base_cycles, __ = min(candidates, key=lambda item: item[2])
    points = [
        FrontPoint(
            area_mm2=area,
            speedup=base_cycles / cycles,
            label=f"{config.n_workers}P_{config.cache_size_kb}k$",
        )
        for config, cycles, area in candidates
    ]

    front = pareto_front(points)
    optimal = kill_rule_prune(front)
    rows = [
        [f"{p.area_mm2:.2f}", f"{p.speedup:.2f}", p.label,
         "optimal" if p in optimal else "dominated step"]
        for p in front
    ]
    print()
    print(format_table(["area mm^2", "speedup", "config", "kill rule"], rows,
                       title="Pareto front (speedup vs chip area)"))
    print(ascii_plot(
        {
            "all points": [(p.area_mm2, p.speedup) for p in points],
            "kill-rule optimal": [(p.area_mm2, p.speedup) for p in optimal],
        },
        x_label="chip area (mm^2)",
        y_label="speedup",
        title="design space (compare paper Fig. 7/9)",
    ))
    best = optimal[-1]
    print(f"largest worthwhile design: {best.label} at {best.area_mm2:.1f} "
          f"mm^2, speedup {best.speedup:.1f} over {baseline.label()}")


if __name__ == "__main__":
    main()
