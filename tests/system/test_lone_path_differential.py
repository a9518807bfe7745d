"""The fabric's lone-flit path against the general step, whole systems.

``NocFabric.step`` takes a short path when the network holds one flit
(``noc/network.py``, module docstring).  Here the same workloads run
twice — as built, and with that path made to decline every step, so the
general path carries every flit — and everything a run reports must be
equal: cycles, ``collect_stats()``, the sampled registry rows, the
attribution report, and the fabric's private state when the run is cut
short with a flit in flight.  The reference machine is assembled here,
by monkeypatch (the ``lone_path`` fixture of ``tests/conftest.py``); there
is no switch for it in ``src/``.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.errors import SimulationError
from repro.system.config import SystemConfig
from repro.telemetry.attribution import build_report, render_report
from repro.telemetry.config import TelemetryConfig

_FOUR_WT = SystemConfig(n_workers=4, cache_size_kb=4, cache_policy="wt")
_JACOBI = JacobiParams(n=10, iterations=2, warmup=0)

RUNS = {
    "jacobi_wt": (run_jacobi, _FOUR_WT, _JACOBI),
    "allreduce_sm": (
        run_collective_bench, SystemConfig(n_workers=4, cache_size_kb=4),
        CollectiveBenchParams(
            collective="allreduce", model="pure_sm", algorithm="tree",
            n_values=8, repeats=1,
        ),
    ),
    "jacobi_wt_telemetry": (
        run_jacobi,
        _FOUR_WT.with_changes(
            telemetry=TelemetryConfig(sample_interval=256, attribution=True)
        ),
        _JACOBI,
    ),
}


def flit_fields(flit) -> tuple | None:
    """A flit without its uid (a process-wide counter)."""
    if flit is None:
        return None
    return (flit.dst, flit.dst_mask, flit.src, flit.ptype, flit.subtype,
            flit.seq, flit.burst, flit.data, flit.injected_at, flit.hops,
            flit.deflections)


def everything(system, name: str) -> dict:
    """What the run reports, and the fabric's state behind it."""
    fabric = system.fabric
    registry = system.telemetry
    return {
        "cycle": system.cycle,
        "stats": system.collect_stats(),
        "samples": None if registry is None else list(registry.samples),
        "report": render_report(build_report(system, workload=name)),
        "regs": [[flit_fields(flit) for flit in row] for row in fabric.regs],
        "work": sorted(fabric._work),
        "flits": fabric.flits_in_network,
        "fabric_active": fabric.active,
        "slots": [
            (flit_fields(port.inject.pending), port.inject.injected,
             [flit_fields(flit) for flit in port.eject.queue])
            for port in fabric.ports
        ],
        "latency": fabric.latency.as_dict(),
    }


def run(name: str, max_cycles: int | None = None):
    """``(result or None, everything)``; ``max_cycles`` cuts the run short."""
    driver, config, params = RUNS[name]
    seen = []
    if max_cycles is None:
        result = driver(config, params, observer=seen.append)
        assert result.validated
    else:
        result = None
        with pytest.raises(SimulationError, match="max_cycles"):
            driver(config, params, max_cycles=max_cycles,
                   observer=seen.append)
    (system,) = seen
    return result, everything(system, name)


@pytest.mark.parametrize("name", RUNS)
def test_whole_runs_are_equal_with_and_without_the_lone_path(name, lone_path):
    result, as_built = run(name)
    # The comparison means something: the path carried most of the traffic
    # (every flit is injected, hops and ejects: three steps or more).
    assert sum(lone_path.returned) > 2 * as_built["stats"]["noc"]["flits_ejected"]
    lone_path.decline()
    reference_result, reference = run(name)
    assert result.total_cycles == reference_result.total_cycles
    assert as_built == reference


@pytest.mark.parametrize("name", ["jacobi_wt", "allreduce_sm"])
def test_runs_cut_short_are_equal_with_and_without_the_lone_path(
    name, lone_path
):
    """Stopped at three cycles right after the lone path latched a flit
    into a link register: the flit caught mid-flight is compared too."""
    run(name)
    latched = lone_path.latched
    stops = [latched[len(latched) * k // 4] + 1 for k in (1, 2, 3)]
    cut = {stop: run(name, stop)[1] for stop in stops}
    for state in cut.values():
        assert state["flits"] == 1 and any(any(row) for row in state["regs"])
    lone_path.decline()
    for stop in stops:
        assert run(name, stop)[1] == cut[stop], f"stopped at {stop}"
