"""Exact ``total_cycles`` and hop pins for every collective.

Every (collective, backend, algorithm, point-to-point path) combination
of bcast / reduce / allreduce is run blocking and non-blocking
(``i<op>`` + ``wait``) across mesh sizes, roots and vector lengths, and
its end-to-end cycle count held to the golden store's
``collective_cycles`` table (``tests/goldens.py``); delivered vectors
are checked against the combine-order references on the way.  Scatter
and gather, always linear and with no ``i*`` form, are pinned blocking
on the combinations that differ for them: each model's flat path, the
hierarchical barrier under the slot arena, and eMPI on the chiplet
package.  A refactor of the collective bodies must emit every timed op
in the same order, i.e. leave this table unchanged.

The ``hops/`` keys of the same table hold what cycle counts cannot: the
zero-cycle ``cph`` notes (:data:`~repro.kernel.trace.CP_HOP`) an eMPI
collective emits under ``TelemetryConfig(attribution=True)``, one
``[cycle, kind, peer]`` list per rank, for every eMPI combination at one
size (P=5, root 2, 16 values; P=8 on the chiplet package).

A combination pins no cycles where its plan is another's: ``ALIASES``
lists, per collective, each flat combination whose
:func:`~repro.empi.schedules.plan` equals a pinned one's at every table
point (the rooted demotion, the pure-SM linear bcast, a TIE-only plan
under an engine or with the assist off).  ``test_schedules.py`` holds,
without simulating, that two flat combinations plan equally exactly when
this table says so, and each alias's pinned test asserts its own
equality.  The aliases stay in ``COMBOS``: the drawn differential runs
them, and the hop pins still run every eMPI combination, the machine-side
check that an alias's config difference (an engine fitted, the assist
off) moves nothing of a TIE-only plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    make_comm,
    reference_allreduce,
    reference_reduce,
)
from repro.empi.schedules import plan
from repro.kernel.trace import CP_HOP
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.telemetry.config import TelemetryConfig
from tests.goldens import check

COLLECTIVES = ("bcast", "reduce", "allreduce")
SCATTER_GATHER = ("scatter", "gather")
SCATTER_GATHER_COMBOS = (
    "empi-linear", "sm-linear", "sm-tree-chiplet", "empi-hier-chiplet",
)
N_VALUES = (2, 16)  # 2 < P everywhere: the ring runs with empty segments
ROOTS = (0, 2)

_DMA = {"dma_tx_queue_depth": 4}
_CHIPLET = {
    "topology_kind": "chiplet", "chiplets": 2, "chiplet_grid": (2, 2),
    "chiplet_link_latency": 8, "chiplet_link_width": 2,
}


@dataclass(frozen=True)
class Combo:
    """One backend x algorithm x point-to-point path."""

    model: str
    algorithm: str
    overrides: dict = field(default_factory=dict)
    sizes: tuple[int, ...] = (3, 5, 8)


COMBOS = {
    "empi-linear": Combo("empi", "linear"),
    "empi-tree": Combo("empi", "tree"),
    "empi-ring": Combo("empi", "ring"),
    "empi-ring-dma": Combo("empi", "ring", _DMA),
    "empi-hier": Combo("empi", "hier"),
    # Real rank groups: the leader tree and the group broadcasts run.
    "empi-hier-chiplet": Combo("empi", "hier", _CHIPLET, sizes=(8,)),
    "empi-hw": Combo("empi", "hw", _DMA),
    "empi-hw-noassist": Combo("empi", "hw", {**_DMA, "dma_reduce_assist": False}),
    "sm-linear": Combo("pure_sm", "linear"),
    "sm-tree": Combo("pure_sm", "tree"),
    "sm-ring": Combo("pure_sm", "ring"),
    # The hierarchical barrier under the slot arena.
    "sm-tree-chiplet": Combo("pure_sm", "tree", _CHIPLET, sizes=(8,)),
}


#: collective -> {alias: the pinned combination whose plan it runs}.
ALIASES = {
    "bcast": {"empi-ring": "empi-tree", "empi-ring-dma": "empi-tree",
              "empi-hier": "empi-tree", "empi-hw-noassist": "empi-hw",
              "sm-tree": "sm-linear", "sm-ring": "sm-linear"},
    "reduce": {"empi-ring": "empi-tree", "empi-ring-dma": "empi-tree",
               "empi-hier": "empi-tree", "empi-hw-noassist": "empi-tree",
               "sm-ring": "sm-tree"},
    "allreduce": {"empi-hier": "empi-ring"},
    "scatter": {},
    "gather": {},
}


def contribution(rank: int, n_values: int) -> list[float]:
    return [(-1.0) ** rank * (rank + 1) + 0.375 * i for i in range(n_values)]


def run_point(collective: str, combo: Combo, n_workers: int, root: int,
              n_values: int, blocking: bool, **overrides) -> MedeaSystem:
    """Run one table point, validate its results, return the system."""
    out: dict[int, object] = {}
    contribs = [contribution(r, n_values) for r in range(n_workers)]

    def factory(rank):
        def program(ctx):
            comm = make_comm(
                ctx, combo.model, combo.algorithm, max_values=n_values
            )
            mine = contribs[rank]
            if collective == "bcast":
                args = (root, mine if rank == root else None, n_values)
            elif collective == "reduce":
                args = (root, mine)
            elif collective == "scatter":
                args = (root, contribs if rank == root else None, n_values)
            elif collective == "gather":
                args = (root, mine)
            else:
                args = (mine,)
            yield from comm.barrier()
            if blocking:
                out[rank] = yield from getattr(comm, collective)(*args)
            else:
                request = yield from getattr(comm, "i" + collective)(*args)
                out[rank] = yield from comm.wait(request)
            yield from comm.barrier()
        return program

    system = MedeaSystem(SystemConfig(
        n_workers=n_workers, cache_size_kb=2, **combo.overrides, **overrides
    ))
    system.load_programs([factory(r) for r in range(n_workers)])
    system.run(max_cycles=5_000_000)
    if collective == "bcast":
        expected = dict.fromkeys(range(n_workers), contribs[root])
    elif collective == "reduce":
        expected = dict.fromkeys(range(n_workers))
        expected[root] = reference_reduce(
            contribs, root, "sum", combo.algorithm
        )
    elif collective == "scatter":
        expected = dict(enumerate(contribs))
    elif collective == "gather":
        expected = dict.fromkeys(range(n_workers))
        expected[root] = contribs
    else:
        expected = dict.fromkeys(range(n_workers), reference_allreduce(
            contribs, "sum", combo.algorithm, groups=system.rank_groups
        ))
    assert out == expected, f"{collective} delivered the wrong vectors"
    return system


def grid(collective: str, combo_name: str) -> dict[str, tuple]:
    """Every table point of one (collective, combo), alias or not: key ->
    its arguments."""
    combo = COMBOS[combo_name]
    roots = (0,) if collective == "allreduce" else ROOTS
    modes = (True,) if collective in SCATTER_GATHER else (True, False)
    return {
        f"{collective}/{combo_name}/P{n_workers}/root{root}/n{n_values}/"
        f"{'blocking' if blocking else 'nonblocking'}":
        (n_workers, root, n_values, blocking)
        for n_workers in combo.sizes
        for root in roots
        for n_values in N_VALUES
        for blocking in modes
    }


def points(collective: str, combo_name: str) -> dict[str, tuple]:
    """The pinned table points of one (collective, combo): none for an
    alias."""
    if combo_name in ALIASES[collective]:
        return {}
    return grid(collective, combo_name)


def plan_of(collective: str, combo_name: str, n_workers: int, root: int,
            n_values: int) -> tuple:
    """The plan one flat table point runs, read without simulating."""
    combo = COMBOS[combo_name]
    config = SystemConfig(n_workers=n_workers, **combo.overrides)
    return plan(collective, CollectiveAlgorithm.parse(combo.algorithm),
                CommModel.parse(combo.model), n_workers,
                None if collective == "allreduce" else root, n_values, None,
                config.dma_tx_queue_depth >= 1, config.dma_reduce_assist)


def check_pins(collective: str, combo_name: str) -> None:
    """Hold one (collective, combo) to the store: its measured cycles, or
    for an alias its plan, equal to its pinned combination's at every
    table point."""
    pinned = ALIASES[collective].get(combo_name)
    if pinned is None:
        check("collective_cycles", measure(collective, combo_name))
        return
    for n_workers, root, n_values, __ in grid(collective, combo_name).values():
        point = (n_workers, root, n_values)
        assert plan_of(collective, combo_name, *point) == plan_of(
            collective, pinned, *point
        ), f"{collective}: {combo_name} no longer runs {pinned}'s plan"


def measure(collective: str, combo_name: str) -> dict[str, int]:
    """Every table point of one (collective, combo): key -> cycles."""
    return {
        key: run_point(collective, COMBOS[combo_name], *arguments).cycle
        for key, arguments in points(collective, combo_name).items()
    }


HOP_COMBOS = tuple(name for name, combo in COMBOS.items()
                   if combo.model == "empi")


def hop_points(collective: str) -> dict[str, tuple]:
    """The hop pins of one collective: key -> (combo name, arguments)."""
    root = 0 if collective == "allreduce" else 2
    return {
        f"hops/{collective}/{combo_name}/"
        f"{'blocking' if blocking else 'nonblocking'}":
        (combo_name, (5 if 5 in COMBOS[combo_name].sizes
                      else COMBOS[combo_name].sizes[0], root, 16, blocking))
        for combo_name in HOP_COMBOS
        for blocking in (True, False)
    }


def measure_hops(collective: str) -> dict[str, list]:
    """Every rank's ``(cycle, kind, peer)`` hops of one collective's
    hop points: key -> one hop list per rank."""
    measured = {}
    for key, (combo_name, arguments) in hop_points(collective).items():
        system = run_point(
            collective, COMBOS[combo_name], *arguments,
            telemetry=TelemetryConfig(attribution=True),
        )
        hops = [[] for __ in range(system.config.n_workers)]
        rank_of = {node: rank for rank, node in system.rank_to_node.items()}
        for cycle, tile, kind, __, payload in system.events.program:
            if kind == CP_HOP:
                hops[rank_of[tile]].append((cycle, *payload))
        measured[key] = hops
    return measured


def _tables():
    """Every (collective, combo) the table covers."""
    for collective in COLLECTIVES:
        for combo_name in COMBOS:
            yield collective, combo_name
    for collective in SCATTER_GATHER:
        for combo_name in SCATTER_GATHER_COMBOS:
            yield collective, combo_name


PIN_KEYS = tuple(
    key for collective, combo_name in _tables()
    for key in points(collective, combo_name)
) + tuple(key for collective in COLLECTIVES for key in hop_points(collective))


def measure_pins() -> dict:
    pins: dict = {}
    for collective, combo_name in _tables():
        pins.update(measure(collective, combo_name))
    for collective in COLLECTIVES:
        pins.update(measure_hops(collective))
    return pins
