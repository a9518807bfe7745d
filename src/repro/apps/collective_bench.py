"""Collective microbenchmark: cycles per operation, per backend.

The per-collective analogue of the paper's barrier comparison (Table 1):
run one collective ``repeats`` times on vectors of ``n_values`` doubles
and report the mean cycles per operation, with every delivered vector
checked against the combine-order references.  The DSE harness sweeps
this over collective x algorithm x programming model x mesh size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    make_comm,
    reference_allreduce,
    reference_reduce,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

#: The sweepable collective operations.
COLLECTIVES = ("bcast", "reduce", "allreduce", "scatter", "gather")


def bench_value(rank: int, repeat: int, index: int) -> float:
    """Deterministic per-(rank, repeat) input vectors."""
    return math.sin(0.23 * rank + 0.41 * repeat + 0.07 * index) + 0.5


@dataclass
class CollectiveBenchParams:
    """One microbenchmark point."""

    collective: str = "allreduce"
    model: CommModel | str = CommModel.EMPI
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR
    n_values: int = 8
    repeats: int = 4

    def __post_init__(self) -> None:
        if self.collective not in COLLECTIVES:
            raise ConfigError(
                f"unknown collective {self.collective!r}; "
                f"use one of {', '.join(COLLECTIVES)}"
            )
        if self.n_values < 1:
            raise ConfigError("need at least one value per vector")
        if self.repeats < 1:
            raise ConfigError("need at least one repeat")
        self.model = CommModel.parse(self.model)
        self.algorithm = CollectiveAlgorithm.parse(self.algorithm)


@dataclass
class CollectiveBenchResult:
    params: CollectiveBenchParams
    config_label: str
    total_cycles: int
    op_cycles: int
    cycles_per_op: float
    validated: bool
    stats: dict = field(repr=False, default_factory=dict)


def _expected(params: CollectiveBenchParams, n_workers: int, repeat: int,
              groups: list[list[int]] | None = None) -> list:
    """What each rank must hold after one repetition, indexed by rank.

    The references are evaluated once per repetition, not once per rank:
    every rank of a bcast or an allreduce holds the same vector.
    ``groups`` are the system's chiplet rank groups (None on flat
    topologies) — the ``hier`` allreduce's combine order depends on them.
    """
    contribs = [
        [bench_value(r, repeat, i) for i in range(params.n_values)]
        for r in range(n_workers)
    ]
    others = [None] * (n_workers - 1)
    collective = params.collective
    if collective == "bcast":
        return [contribs[0]] * n_workers
    if collective == "reduce":
        return [reference_reduce(contribs, 0, "sum", params.algorithm)] + others
    if collective == "allreduce":
        return [
            reference_allreduce(contribs, "sum", params.algorithm, groups=groups)
        ] * n_workers
    if collective == "scatter":
        return contribs
    return [contribs] + others  # gather


def _make_program(params: CollectiveBenchParams, rank: int, n_workers: int,
                  results: dict[int, list]):
    def program(ctx):
        comm = make_comm(
            ctx, params.model, params.algorithm, max_values=params.n_values
        )
        collective = params.collective
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("ops_start")
        outputs = []
        for repeat in range(params.repeats):
            mine = [
                bench_value(rank, repeat, i) for i in range(params.n_values)
            ]
            if collective == "bcast":
                payload = mine if rank == 0 else None
                out = yield from comm.bcast(0, payload, params.n_values)
            elif collective == "reduce":
                out = yield from comm.reduce(0, mine)
            elif collective == "allreduce":
                out = yield from comm.allreduce(mine)
            elif collective == "scatter":
                chunks = None
                if rank == 0:
                    chunks = [
                        [bench_value(r, repeat, i)
                         for i in range(params.n_values)]
                        for r in range(n_workers)
                    ]
                out = yield from comm.scatter(0, chunks, params.n_values)
            else:  # gather
                out = yield from comm.gather(0, mine)
            outputs.append(out)
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("ops_done")
        results[rank] = outputs

    return program


def run_collective_bench(
    config: SystemConfig,
    params: CollectiveBenchParams,
    max_cycles: int | None = None,
    observer=None,
) -> CollectiveBenchResult:
    """Run one microbenchmark point and validate every delivered vector.

    ``observer`` (if given) is called with the built
    :class:`~repro.system.medea.MedeaSystem` before the run — the same
    capture hook :func:`~repro.apps.cg.run_cg` offers, so trace/analyze
    workloads can hold onto the system for post-run inspection.
    """
    params = replace(params)  # a checked copy: __post_init__ runs again
    n_workers = config.n_workers
    results: dict[int, list] = {}
    system = MedeaSystem(config)
    if observer is not None:
        observer(system)
    system.load_programs([
        _make_program(params, rank, n_workers, results)
        for rank in range(n_workers)
    ])
    total_cycles = system.run(max_cycles=max_cycles)
    marks = system.events.marks(system.rank_to_node[0])
    op_cycles = marks["ops_done"] - marks["ops_start"]

    validated = True
    groups = system.rank_groups
    for repeat in range(params.repeats):
        expected = _expected(params, n_workers, repeat, groups)
        for rank in range(n_workers):
            if results[rank][repeat] != expected[rank]:
                validated = False
    return CollectiveBenchResult(
        params=params,
        config_label=config.label(),
        total_cycles=total_cycles,
        op_cycles=op_cycles,
        cycles_per_op=op_cycles / params.repeats,
        validated=validated,
        stats=system.collect_stats(),
    )
