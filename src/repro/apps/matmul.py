"""Tiled parallel matrix multiply — a collective-heavy workload.

``C = A x B`` with the inner (k) dimension split across workers: rank r
owns a contiguous k-slice, holds the matching columns of A and rows of B,
and computes a full-size *partial* product over its slice.  Two
collectives carry all the communication:

* **row broadcast** — rank 0 generates A and broadcasts it row by row;
  each rank keeps only the columns of its k-slice;
* **partial-sum reduce** — the partial products are combined to rank 0
  tile by tile (``tile`` rows of C per reduce), an elementwise-sum
  reduction over vectors of ``tile * n`` doubles.

Both collectives run over either programming model (message passing or
the shared-memory MPMMU path) and either algorithm (linear or binomial
tree), making every run a four-way comparison point.  The result is
validated bit for bit against :func:`reference_matmul`, which replicates
the per-slice accumulation order and the reduce combine order exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.apps.jacobi.partition import split_evenly
from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    make_comm,
    reference_reduce,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


def a_value(i: int, k: int) -> float:
    """Deterministic A entries: smooth, sign-varying, bit-portable."""
    return math.sin(0.2 * i + 0.11 * k) + 1.0


def b_value(k: int, j: int) -> float:
    """Deterministic B entries."""
    return math.cos(0.13 * k - 0.07 * j) - 0.5


@dataclass
class MatmulParams:
    """One matrix-multiply experiment."""

    n: int = 8
    tile: int = 2
    model: CommModel | str = CommModel.EMPI
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"matrix must be at least 1x1, got {self.n}")
        if not (1 <= self.tile <= self.n):
            raise ConfigError(
                f"tile must be in [1, {self.n}], got {self.tile}"
            )
        self.model = CommModel.parse(self.model)
        self.algorithm = CollectiveAlgorithm.parse(self.algorithm)


@dataclass
class MatmulResult:
    params: MatmulParams
    config_label: str
    total_cycles: int
    stage_cycles: int
    compute_cycles: int
    reduce_cycles: int
    value: list[list[float]]
    expected: list[list[float]]
    stats: dict = field(repr=False, default_factory=dict)

    @property
    def validated(self) -> bool:
        return self.value == self.expected


def reference_matmul(
    n: int,
    n_workers: int,
    tile: int,
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
) -> list[list[float]]:
    """The exact C the machine must produce (same accumulation orders)."""
    chunks = split_evenly(n, n_workers)
    partials = []
    for chunk in chunks:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = 0.0
                for k in range(chunk.first_row, chunk.first_row + chunk.n_rows):
                    acc += a_value(i, k) * b_value(k, j)
                row.append(acc)
            rows.append(row)
        partials.append(rows)
    c_rows: list[list[float]] = []
    for tile_start in range(0, n, tile):
        rows = range(tile_start, min(tile_start + tile, n))
        vectors = [
            [partial[i][j] for i in rows for j in range(n)]
            for partial in partials
        ]
        combined = reference_reduce(vectors, 0, "sum", algorithm)
        for index, __ in enumerate(rows):
            c_rows.append(combined[index * n:(index + 1) * n])
    return c_rows


def _make_program(params: MatmulParams, chunks, rank: int,
                  results: dict[int, list[list[float]]]):
    def program(ctx):
        n = params.n
        tile = params.tile
        chunk = chunks[rank]
        k_first = chunk.first_row
        k_size = chunk.n_rows
        cost = ctx.cost
        comm = make_comm(
            ctx, params.model, params.algorithm, max_values=tile * n
        )
        # Private staging: A columns of the k-slice (row-major over i),
        # then B rows of the k-slice, then (rank 0 only) the C result.
        a_base = ctx.private_base
        b_base = a_base + n * k_size * 8
        c_base = b_base + k_size * n * 8

        if rank == 0:
            yield ctx.note("stage_start")

        # Row broadcast: rank 0 streams A one row at a time; every rank
        # stages only the columns its k-slice multiplies.  The broadcast
        # is non-blocking (ibcast) and double-buffered: row i+1 is posted
        # before row i's columns are staged, and the stores run inside
        # overlap() so the engine progresses the next row's broadcast
        # underneath them.  Data and combine orders are untouched, so the
        # result stays bit-identical to reference_matmul.
        def _store_columns(row, i):
            for kk in range(k_size):
                yield ctx.store_double(
                    a_base + (i * k_size + kk) * 8, row[k_first + kk]
                )

        def _a_row(i):
            return [a_value(i, k) for k in range(n)] if rank == 0 else None

        request = yield from comm.ibcast(0, _a_row(0), n)
        for i in range(n):
            row = yield from comm.wait(request)
            if i + 1 < n:
                request = yield from comm.ibcast(0, _a_row(i + 1), n)
            yield from comm.overlap(_store_columns(row, i))
        # B rows of the slice are this rank's own data.
        for kk in range(k_size):
            for j in range(n):
                yield ctx.store_double(
                    b_base + (kk * n + j) * 8, b_value(k_first + kk, j)
                )
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("compute_start")

        # Full-size partial product over the owned k-slice.
        mac_cost = cost.fp_mul + cost.fp_add + cost.loop_overhead
        partial: list[list[float]] = []
        for i in range(n):
            row_out = []
            for j in range(n):
                acc = 0.0
                for kk in range(k_size):
                    a = yield ctx.load_double(a_base + (i * k_size + kk) * 8)
                    b = yield ctx.load_double(b_base + (kk * n + j) * 8)
                    acc += a * b
                    yield ("compute", mac_cost)
                row_out.append(acc)
            partial.append(row_out)
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("reduce_start")

        # Partial-sum reduce, tile rows of C at a time.
        c_rows: list[list[float]] = []
        for tile_start in range(0, n, tile):
            rows = range(tile_start, min(tile_start + tile, n))
            vector = [partial[i][j] for i in rows for j in range(n)]
            combined = yield from comm.reduce(0, vector, op="sum")
            if rank == 0:
                for index, i in enumerate(rows):
                    row = combined[index * n:(index + 1) * n]
                    for j in range(n):
                        yield ctx.store_double(
                            c_base + (i * n + j) * 8, row[j]
                        )
                    c_rows.append(row)
        if rank == 0:
            yield ctx.note("reduce_done")
            results[0] = c_rows

    return program


def run_matmul(config: SystemConfig, params: MatmulParams,
               max_cycles: int | None = None) -> MatmulResult:
    """Run one matrix-multiply experiment on one architecture point."""
    params = replace(params)  # a checked copy: __post_init__ runs again
    chunks = split_evenly(params.n, config.n_workers)
    results: dict[int, list[list[float]]] = {}
    system = MedeaSystem(config)
    system.load_programs([
        _make_program(params, chunks, rank, results)
        for rank in range(config.n_workers)
    ])
    total_cycles = system.run(max_cycles=max_cycles)
    marks = system.events.marks(system.rank_to_node[0])
    expected = reference_matmul(
        params.n, config.n_workers, params.tile, params.algorithm
    )
    return MatmulResult(
        params=params,
        config_label=config.label(),
        total_cycles=total_cycles,
        stage_cycles=marks["compute_start"] - marks["stage_start"],
        compute_cycles=marks["reduce_start"] - marks["compute_start"],
        reduce_cycles=marks["reduce_done"] - marks["reduce_start"],
        value=results[0],
        expected=expected,
        stats=system.collect_stats(),
    )
