"""Compute-communication overlap: the CG solver with and without it.

The non-blocking eMPI layer splits every operation into post + complete,
so a program can keep computing while the TIE hardware streams flits.
This walkthrough runs the distributed conjugate-gradient solver both
ways on the reference 8-worker mesh: the blocking run serializes halo
exchanges and dot-product allreduces against the compute phases, the
overlapped run hides them behind interior SpMV rows and the x update —
and converges to the *same bits*, because the floating-point operation
order never changes.

Run with::

    python examples/cg.py
"""

from __future__ import annotations

from repro.apps.cg import CgParams, run_cg
from repro.dse.report import format_table
from repro.system.config import SystemConfig


def overlap_on_vs_off() -> None:
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    rows = []
    outcomes = {}
    for model in ("empi", "pure_sm"):
        for overlap in (False, True):
            result = run_cg(
                config,
                CgParams(n=64, iterations=10, model=model,
                         algorithm="tree", overlap=overlap),
            )
            assert result.validated and result.converged
            outcomes[(model, overlap)] = result
            rows.append([
                model,
                "overlap" if overlap else "blocking",
                result.total_cycles,
                f"{result.overlap_efficiency:.2f}",
                f"{result.rr_history[-1]:.2e}",
            ])
    print(format_table(
        ["model", "mode", "total cycles", "overlap eff", "final |r|^2"],
        rows,
        title="CG, 64-row SPD system, 10 iterations, 8 workers",
    ))
    empi_blocking = outcomes[("empi", False)]
    empi_overlap = outcomes[("empi", True)]
    saved = empi_blocking.total_cycles - empi_overlap.total_cycles
    print(f"hybrid model: overlap saves {saved} cycles "
          f"({empi_blocking.total_cycles / empi_overlap.total_cycles:.4f}x) "
          f"with {empi_overlap.overlap_efficiency:.0%} of in-flight")
    print("communication hidden behind compute — the TIE streams while the")
    print("core works.  The pure-SM rows show the contrast: the core must")
    print("move every word itself, so there is little hardware to overlap")
    print("with.\n")


def bit_identity() -> None:
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    results = {}
    for overlap in (False, True):
        results[overlap] = run_cg(
            config,
            CgParams(n=64, iterations=10, model="empi",
                     algorithm="tree", overlap=overlap),
        )
    assert results[False].x == results[True].x
    assert results[False].rr_history == results[True].rr_history
    print("blocking and overlapped runs produced bit-identical solutions")
    print("and residual histories: overlap changes the schedule, never the")
    print("arithmetic.")


def main() -> None:
    overlap_on_vs_off()
    bit_identity()


if __name__ == "__main__":
    main()
