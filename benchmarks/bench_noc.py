"""NoC characterization: deflection-routing latency, outliers, livelock.

Covers the Section II-A claims (minimal-storage hot-potato switches,
sporadic high-latency flits, no livelock) with the synthetic-traffic
harness, plus raw fabric throughput as a microbenchmark.
"""

from __future__ import annotations

from repro.apps.synthetic import run_synthetic_traffic
from repro.dse.experiments import REGISTRY

from conftest import save_and_echo


def test_noc_characterization(benchmark, results_dir):
    report = benchmark.pedantic(lambda: REGISTRY["noc"](), rounds=1,
                                iterations=1)
    save_and_echo(report, results_dir)
    # Livelock freedom: every run delivered everything.
    assert all(row[-1] == "yes" for row in report.rows)
    # Outliers exist but stay sporadic: p99 well under the max.
    for row in report.rows:
        rate = float(row[1])
        if rate >= 0.4:
            mean_latency = float(row[2])
            max_latency = int(row[3])
            assert max_latency > 2 * mean_latency


def test_fabric_saturation_throughput(benchmark):
    """Raw switch fabric speed: saturating uniform load on a 4x4 torus."""
    def run():
        return run_synthetic_traffic(rate=0.45, cycles=1000, seed=9)

    stats = benchmark(run)
    assert stats.all_delivered
    assert stats.throughput > 0.1  # flits/node/cycle under saturation
