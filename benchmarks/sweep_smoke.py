"""CI smoke for the sweep service: pool run, kill, resume, count hits.

Drives a tiny Jacobi sweep through the *process* backend, then rehearses
the failure that motivated the journaled cache: a second sweep is
SIGKILLed partway through, and the resumed run must recompute only the
points the kill left pending.  The cache-hit accounting is written to
``sweep-smoke.json`` (uploaded as a CI artifact) and the script exits
nonzero on any violated invariant.

Run with::

    PYTHONPATH=src python benchmarks/sweep_smoke.py [out.json]
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import tempfile

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import run_space
from repro.dse.space import jacobi_sweep_space

KILL_AFTER = 2  # points completed before the rehearsed crash


def tiny_space():
    return jacobi_sweep_space(
        "sweep_smoke",
        workers=(1, 2, 3, 4),
        cache_sizes_kb=(4,),
        policies=("wb",),
        params=JacobiParams(n=8, iterations=2, warmup=0),
    )


def _run_and_die(cache_dir: str) -> None:
    """Child body: run inline, SIGKILL this process after KILL_AFTER points."""

    def killer(done: int, total: int) -> None:
        if done >= KILL_AFTER:
            os.kill(os.getpid(), signal.SIGKILL)

    run_space(tiny_space(), backend="inline", cache_dir=cache_dir,
              progress=killer)


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "sweep-smoke.json"
    space = tiny_space()
    n_points = space.n_points
    report: dict = {"n_points": n_points, "kill_after": KILL_AFTER}

    with tempfile.TemporaryDirectory() as pool_dir:
        # -- 1. the pool path: a fresh sweep through the process backend --
        pooled = run_space(space, backend="process", jobs=2,
                           cache_dir=pool_dir)
        report["pool"] = {"computed": pooled.n_computed,
                          "cached": pooled.n_cached}
        assert pooled.n_computed == n_points, "fresh pool run must compute all"

        # -- 2. and the warm rerun serves everything from cache ----------
        warm = run_space(space, backend="process", jobs=2,
                         cache_dir=pool_dir)
        report["warm"] = {"computed": warm.n_computed,
                          "cached": warm.n_cached}
        assert warm.n_cached == n_points, "warm rerun must be all cache hits"
        assert warm.payloads() == pooled.payloads(), "cache changed payloads"

    with tempfile.TemporaryDirectory() as crash_dir:
        # -- 3. kill a sweep mid-run, then resume -------------------------
        child = multiprocessing.Process(target=_run_and_die,
                                        args=(crash_dir,))
        child.start()
        child.join(timeout=300)
        assert child.exitcode == -signal.SIGKILL, (
            f"child should die by SIGKILL, exited {child.exitcode}"
        )
        resumed = run_space(space, backend="process", jobs=2,
                            cache_dir=crash_dir)
        report["resume"] = {"computed": resumed.n_computed,
                            "cached": resumed.n_cached}
        assert resumed.n_cached == KILL_AFTER, (
            f"resume served {resumed.n_cached} cached points, "
            f"expected {KILL_AFTER}"
        )
        assert resumed.n_computed == n_points - KILL_AFTER
        assert resumed.payloads() == pooled.payloads(), (
            "resumed sweep diverged from the uninterrupted run"
        )

    report["ok"] = True
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
