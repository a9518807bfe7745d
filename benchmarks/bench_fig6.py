"""Figure 6: execution time for the 60x60 Jacobi vs cores/cache/policy.

``pytest benchmarks/bench_fig6.py --benchmark-only`` regenerates the
figure's series (reduced scale by default, ``MEDEA_FULL=1`` for the paper's
full 2-15 cores x 2-64 kB x WB/WT grid) and saves the rendered table +
ASCII plot under ``benchmarks/out/fig6.txt``.
"""

from __future__ import annotations

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.dse.experiments import REGISTRY
from repro.system.config import SystemConfig

from conftest import save_and_echo


def test_fig6_regeneration(benchmark, results_dir):
    report = benchmark.pedantic(
        lambda: REGISTRY["fig6"](cache_dir=results_dir),
        rounds=1, iterations=1,
    )
    save_and_echo(report, results_dir)
    # Shape checks from the paper: WT never beats WB at matched geometry,
    # and adding cores never hurts with the largest cache.
    by_label = report.series
    for label, values in by_label.items():
        if label.endswith("WT"):
            twin = label.replace("WT", "WB")
            if twin in by_label:
                wt = dict(values)
                wb = dict(by_label[twin])
                for cores in wt:
                    if cores in wb:
                        assert wt[cores] >= wb[cores]
    largest_wb = max(
        (label for label in by_label if label.endswith("WB")),
        key=lambda lab: int(lab.split("kB")[0]),
    )
    curve = sorted(by_label[largest_wb])
    assert curve[-1][1] <= curve[0][1]  # more cores, less time


def test_fig6_single_point_60x60(benchmark):
    """Wall-time of one representative fig6 point (8 cores, 16 kB, WB)."""
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    params = JacobiParams(n=60, iterations=3, warmup=1)
    result = benchmark.pedantic(
        lambda: run_jacobi(config, params), rounds=1, iterations=1
    )
    assert result.validated
