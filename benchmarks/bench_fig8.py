"""Figure 8: execution time for the 30x30 Jacobi, write-back caches."""

from __future__ import annotations

from repro.dse.experiments import REGISTRY

from conftest import save_and_echo


def test_fig8_regeneration(benchmark, results_dir):
    report = benchmark.pedantic(
        lambda: REGISTRY["fig8"](cache_dir=results_dir),
        rounds=1, iterations=1,
    )
    save_and_echo(report, results_dir)
    series = report.series
    assert series
    # Paper: scalability is hampered when caches are too small — the
    # smallest cache's curve must sit at or above the largest cache's.
    smallest = min(series, key=lambda lab: int(lab.split("kB")[0]))
    largest = max(series, key=lambda lab: int(lab.split("kB")[0]))
    small_curve = dict(series[smallest])
    large_curve = dict(series[largest])
    for cores, cycles in small_curve.items():
        assert cycles >= large_curve[cores]
