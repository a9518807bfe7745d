"""Figure 9: optimal speedup vs chip area for the 30x30 run."""

from __future__ import annotations

from repro.dse.experiments import REGISTRY

from conftest import save_and_echo


def test_fig9_regeneration(benchmark, results_dir):
    report = benchmark.pedantic(
        lambda: REGISTRY["fig9"](cache_dir=results_dir),
        rounds=1, iterations=1,
    )
    save_and_echo(report, results_dir)
    optimal = report.series["kill-rule"]
    assert optimal
    # Paper: the 30x30 lower knee occurs at ~4x smaller caches than the
    # 60x60 case; at reduced scale we at least require a rising staircase.
    speedups = [s for __, s in optimal]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 1.0
