"""Quickstart: build a MEDEA system, run Jacobi, inspect the results.

Run with::

    python examples/quickstart.py

This is the 30-second tour: one architecture point (4 worker cores + the
MPMMU on a folded torus, 16 kB write-back L1s), the paper's Jacobi
workload in the full hybrid model, cycle measurements, bit-exact
validation against the reference, and a peek at the NoC statistics.
"""

from __future__ import annotations

from repro import SystemConfig
from repro.apps.jacobi import JacobiParams, run_jacobi


def main() -> None:
    config = SystemConfig(
        n_workers=4,          # plus the MPMMU -> 5 NoC nodes
        cache_size_kb=16,
        cache_policy="wb",
    )
    params = JacobiParams(
        n=16,                 # 16x16 grid of doubles
        iterations=4,
        warmup=1,
        model="hybrid_full",  # data + synchronization via message passing
    )

    print(f"architecture : {config.label()} on a folded torus")
    print(f"workload     : Jacobi {params.n}x{params.n}, "
          f"{params.iterations} iterations ({params.warmup} warm-up)")

    result = run_jacobi(config, params)

    print(f"\ncycles/iteration (steady state): {result.cycles_per_iteration:.0f}")
    print(f"per-iteration breakdown        : {result.iteration_cycles}")
    print(f"total cycles                   : {result.total_cycles}")
    print(f"validated vs reference         : {result.validated} "
          f"(max abs error {result.max_abs_error:g})")

    noc = result.stats["noc"]
    print("\nNoC statistics:")
    print(f"  flits delivered   : {noc['flits_ejected']}")
    print(f"  deflections       : {noc.get('deflections', 0)}")
    print(f"  mean flit latency : {noc['latency']['mean']:.1f} cycles "
          f"(max {noc['latency']['max']})")

    worker0 = result.stats["workers"][0]
    cache = worker0["cache"]
    hits = cache.get("read_hits", 0) + cache.get("write_hits", 0)
    misses = cache.get("read_misses", 0) + cache.get("write_misses", 0)
    print("\nrank 0 L1:")
    print(f"  hits {hits}, misses {misses} "
          f"(hit rate {hits / max(hits + misses, 1):.1%})")


if __name__ == "__main__":
    main()
