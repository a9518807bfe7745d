"""The whole machine's state, on which two runs are compared."""

from __future__ import annotations

from repro.kernel.state import component_state, plain
from repro.telemetry.attribution import build_report, render_report


def machine_state(system, schedule: bool = False) -> dict:
    """The kernel's active set, mask and pending wake-ups (``schedule``
    only), one section per component in phase order, the fault layer,
    every memory word and what the run reports."""
    stats = system.collect_stats()  # folds the batched counters in first
    sim = system.sim
    state = {"kernel": {
        "active": [comp.name for comp in sim.components if comp.active],
        "mask": [comp.name for comp in sim.components if sim._active & comp._bit],
        "wakeups": sorted((cycle, comp.name) for cycle, __, comp in sim._wakeups),
    }} if schedule else {}
    for component in (system.fabric, system.mpmmu, *system.nodes):
        state[component.name] = component_state(component)
    state["faults"] = plain(system.injector)
    state["memory"] = {
        "ddr": dict(system.ddr.store._words),
        "mpmmu": plain(system.mpmmu.cache._sets),
        **{node.name: {"l1": plain(node.cache._sets),
                       "lmem": dict(node.scratchpad.store._words)}
           for node in system.nodes},
    }
    registry = system.telemetry
    state["system"] = {
        "cycle": system.cycle, "stats": stats,
        "report": render_report(build_report(system, workload="run")),
        "samples": None if registry is None else list(registry.samples),
        "program_events": list(system.events.program),
        "ring_events": [  # the key of an EJECT is a flit uid
            (event.cycle, event.tile, event.kind, event.payload)
            for event in system.events.ring
        ],
    }
    return state
