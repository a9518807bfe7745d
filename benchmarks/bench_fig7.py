"""Figure 7: optimal speedup vs chip area (60x60), Pareto + kill rule."""

from __future__ import annotations

from repro.dse.experiments import REGISTRY

from conftest import save_and_echo


def test_fig7_regeneration(benchmark, results_dir):
    report = benchmark.pedantic(
        lambda: REGISTRY["fig7"](cache_dir=results_dir),
        rounds=1, iterations=1,
    )
    save_and_echo(report, results_dir)
    front = report.series["pareto"]
    optimal = report.series["kill-rule"]
    assert optimal  # the staircase exists
    assert set(optimal) <= set(front)
    # The front is monotone: more area on the front means more speedup.
    areas = [a for a, __ in front]
    speedups = [s for __, s in front]
    assert areas == sorted(areas)
    assert speedups == sorted(speedups)
    # The kill rule prunes at least as hard as Pareto dominance.
    assert len(optimal) <= len(front)
