"""Simulator throughput — the counterpart of the paper's 15x/overnight claim.

The authors' SystemC model ran 15x faster than HDL-ISS co-simulation and
completed 168 configurations x 3 sizes overnight on five servers.  Our
analogue: simulated cycles per wall-clock second on reference workloads,
plus the projected wall time of the full paper sweep on this host.
"""

from __future__ import annotations

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.dse.experiments import ALL_EXPERIMENTS
from repro.system.config import SystemConfig

from conftest import save_and_echo


def test_simspeed_report(benchmark, results_dir):
    report = benchmark.pedantic(lambda: ALL_EXPERIMENTS["simspeed"](), rounds=1,
                                iterations=1)
    save_and_echo(report, results_dir)
    assert report.rows[0][2] > 0


def test_reference_config_throughput(benchmark):
    """Benchmark the kernel on the 8-core/16 kB reference machine."""
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    params = JacobiParams(n=30, iterations=3, warmup=1)

    result = benchmark(lambda: run_jacobi(config, params))
    assert result.validated


def test_small_system_throughput(benchmark):
    """Benchmark the kernel on the smallest interesting machine."""
    config = SystemConfig(n_workers=2, cache_size_kb=4)
    params = JacobiParams(n=16, iterations=3, warmup=1)

    result = benchmark(lambda: run_jacobi(config, params))
    assert result.validated


def test_saturated_mpmmu_throughput(benchmark):
    """Worst case for the event kernel: WT traffic saturating the MPMMU."""
    config = SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wt")
    params = JacobiParams(n=16, iterations=2, warmup=0)

    result = benchmark(lambda: run_jacobi(config, params))
    assert result.validated
