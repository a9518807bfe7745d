"""Ablations of the paper's design choices.

Each benchmark sweeps one architectural knob on a fixed workload and
prints a small table, making the cost/benefit of the paper's choices
visible: arbiter configuration (Fig. 3), barrier algorithm, write-buffer
depth, ejection width, torus vs mesh, the Section II-C lock-write
protocol and the Multiply-High core option.  It is the only end-to-end
exerciser of the arbiter modes, the ejection width and ``use_mul_high``
(``benchmarks/options_census.txt`` shows them with one value in traffic);
needs the pytest-benchmark plugin: ``pytest benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.dse.report import format_table
from repro.system.config import SystemConfig


def _sweep(benchmark, title, rows_fn):
    rows = benchmark.pedantic(rows_fn, rounds=1, iterations=1)
    print("\n" + format_table(["variant", "cycles/iter"], rows, title=title))
    return dict(rows)


def test_arbiter_modes(benchmark):
    params = JacobiParams(n=24, iterations=3, warmup=1)

    def run():
        rows = []
        for mode in ("mux", "single_fifo", "dual_fifo"):
            config = SystemConfig(n_workers=6, cache_size_kb=8,
                                  arbiter_mode=mode)
            result = run_jacobi(config, params)
            assert result.validated
            rows.append([mode, f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "arbiter configurations (Fig. 3)", run)
    assert len(cycles) == 3


def test_barrier_algorithms(benchmark):
    params = JacobiParams(n=16, iterations=3, warmup=1)

    def run():
        rows = []
        for algorithm in ("central", "dissemination"):
            config = SystemConfig(n_workers=8, cache_size_kb=8,
                                  empi_barrier=algorithm)
            result = run_jacobi(config, params)
            assert result.validated
            rows.append([algorithm, f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "eMPI barrier algorithm", run)
    assert len(cycles) == 2


def test_write_buffer_depth(benchmark):
    params = JacobiParams(n=16, iterations=2, warmup=0)

    def run():
        rows = []
        for depth in (1, 2, 4, 8):
            config = SystemConfig(n_workers=4, cache_size_kb=8,
                                  cache_policy="wt",
                                  write_buffer_depth=depth)
            result = run_jacobi(config, params)
            assert result.validated
            rows.append([f"depth={depth}", f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "write buffer depth (WT stores)", run)
    # Deeper buffers can only help store throughput.
    assert float(cycles["depth=8"]) <= float(cycles["depth=1"])


def test_topology_torus_vs_mesh(benchmark):
    params = JacobiParams(n=24, iterations=3, warmup=1)

    def run():
        rows = []
        for kind in ("folded_torus", "mesh"):
            config = SystemConfig(n_workers=8, cache_size_kb=8,
                                  topology_kind=kind)
            result = run_jacobi(config, params)
            assert result.validated
            rows.append([kind, f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "topology", run)
    assert len(cycles) == 2


def test_eject_width(benchmark):
    params = JacobiParams(n=16, iterations=2, warmup=0)

    def run():
        rows = []
        for width in (1, 2):
            config = SystemConfig(n_workers=8, cache_size_kb=8,
                                  eject_width=width)
            result = run_jacobi(config, params)
            assert result.validated
            rows.append([f"eject={width}", f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "ejection width (flits/cycle)", run)
    assert float(cycles["eject=2"]) <= float(cycles["eject=1"]) * 1.05


def test_lock_write_protocol_cost(benchmark):
    """Section II-C locking on the shared-data model: the cost of safety."""
    params_base = dict(n=24, iterations=2, warmup=0)

    def run():
        rows = []
        for locked in (False, True):
            result = run_jacobi(
                SystemConfig(n_workers=4, cache_size_kb=8),
                JacobiParams(model="hybrid_sync", lock_writes=locked,
                             **params_base),
            )
            assert result.validated
            label = "lock/flush/unlock" if locked else "barrier-ordered"
            rows.append([label, f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "II-C shared-write protocol", run)
    assert float(cycles["lock/flush/unlock"]) > float(cycles["barrier-ordered"])


def test_mul_high_option(benchmark):
    """The paper's Multiply-High core option (26 vs 60 cycle DP multiply)."""
    from repro.pe.costmodel import FpCostModel

    params = JacobiParams(n=24, iterations=3, warmup=1)

    def run():
        rows = []
        for mul_high in (True, False):
            config = SystemConfig(n_workers=4, cache_size_kb=16,
                                  fp=FpCostModel(use_mul_high=mul_high))
            result = run_jacobi(config, params)
            assert result.validated
            label = "mul-high" if mul_high else "16/32-bit mul"
            rows.append([label, f"{result.cycles_per_iteration:.0f}"])
        return rows

    cycles = _sweep(benchmark, "Multiply High option", run)
    assert float(cycles["mul-high"]) < float(cycles["16/32-bit mul"])
