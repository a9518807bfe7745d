"""Parallel dot product — a second workload on the MEDEA models.

The paper's future work calls for "porting and execution of standard
parallel benchmarks"; the distributed dot product is the smallest such
kernel with a global reduction, and it isolates exactly the part of a
parallel program the hybrid architecture accelerates: combining per-core
results.

Two reduction strategies:

* ``empi`` — local partial sums travel over the message-passing path
  (gather to rank 0, broadcast of the total: the eMPI allreduce);
* ``pure_sm`` — a lock-protected shared accumulator through the MPMMU,
  followed by a shared-memory barrier and an uncached read of the total.

Both are validated against a reference that replicates the accumulation
order exactly, so results match bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.apps.jacobi.partition import Strip
from repro.empi.smsync import SharedMemoryBarrier, SharedMemoryLock
from repro.errors import ConfigError, ValidationError, parse_enum
from repro.mem.values import float_to_words, words_to_float
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

#: Shared-segment layout for the pure-SM reduction.
_ACCUMULATOR_OFFSET = 64   # one line past the barrier/lock area
_RESULT_LINE_BYTES = 16


class ReductionModel(enum.Enum):
    EMPI = "empi"
    PURE_SM = "pure_sm"

    @classmethod
    def parse(cls, value: "ReductionModel | str") -> "ReductionModel":
        return parse_enum(cls, value, "reduction model")


def element_values(index: int) -> tuple[float, float]:
    """Deterministic input vectors: smooth, sign-varying, exactly portable."""
    x = math.sin(0.1 * index) + 1.5
    y = math.cos(0.07 * index) - 0.25
    return x, y


def chunks_for(n_elements: int, n_workers: int) -> list[Strip]:
    """Contiguous element ranges per rank (reusing the Strip record)."""
    base = n_elements // n_workers
    extra = n_elements % n_workers
    chunks = []
    start = 0
    for rank in range(n_workers):
        count = base + (1 if rank < extra else 0)
        chunks.append(Strip(rank, start, count))
        start += count
    return chunks


def reference_dot(n_elements: int, n_workers: int) -> float:
    """The exact value the machine must produce (same summation order)."""
    total = 0.0
    for chunk in chunks_for(n_elements, n_workers):
        partial = 0.0
        for index in range(chunk.first_row, chunk.first_row + chunk.n_rows):
            x, y = element_values(index)
            partial += x * y
        total += partial
    return total


@dataclass
class DotProductParams:
    """One dot-product experiment."""

    n_elements: int = 256
    model: ReductionModel | str = ReductionModel.EMPI

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ConfigError("need at least one element")
        self.model = ReductionModel.parse(self.model)


@dataclass
class DotProductResult:
    params: DotProductParams
    config_label: str
    total_cycles: int
    reduction_cycles: int
    value: float
    expected: float
    stats: dict = field(repr=False, default_factory=dict)

    @property
    def validated(self) -> bool:
        return self.value == self.expected


def _make_program(params: DotProductParams, chunks: list[Strip], rank: int,
                  results: dict[int, float]):
    model = ReductionModel.parse(params.model)

    def program(ctx):
        chunk = chunks[rank]
        cost = ctx.cost
        base = ctx.private_base
        # Stage the chunk of both vectors in the private segment
        # (interleaved x/y pairs), like a host would have loaded it.
        for offset in range(chunk.n_rows):
            x, y = element_values(chunk.first_row + offset)
            yield from ctx.store_double(base + 16 * offset, x)
            yield from ctx.store_double(base + 16 * offset + 8, y)

        if model is ReductionModel.EMPI:
            barrier = ctx.empi.barrier
        else:
            sm_barrier = SharedMemoryBarrier(ctx, ctx.shared_base)
            barrier = sm_barrier.wait
        yield from barrier()
        if rank == 0:
            yield ctx.note("compute_start")

        partial = 0.0
        for offset in range(chunk.n_rows):
            x = yield from ctx.load_double(base + 16 * offset)
            y = yield from ctx.load_double(base + 16 * offset + 8)
            partial += x * y
            yield ("compute", cost.fp_mul + cost.fp_add + cost.loop_overhead)
        yield from barrier()
        if rank == 0:
            yield ctx.note("reduce_start")

        if model is ReductionModel.EMPI:
            # Linear sum: rank 0 adds the partials in ascending rank
            # order — reference_dot's order — and broadcasts the total.
            total = (yield from ctx.empi.allreduce_doubles([partial]))[0]
        else:
            accumulator = ctx.shared_base + _ACCUMULATOR_OFFSET
            lock = SharedMemoryLock(ctx, accumulator + _RESULT_LINE_BYTES)
            # Rank order must match the reference's summation order, so
            # each rank waits for its turn via a turn counter.
            turn_addr = accumulator + 8
            while True:
                turn = yield ("uload", turn_addr)
                if turn == rank:
                    break
                yield ("compute", 16)
            yield from lock.acquire()
            low = yield ("uload", accumulator)
            high = yield ("uload", accumulator + 4)
            running = words_to_float(low, high)
            running += partial
            low, high = float_to_words(running)
            yield ("ustore", accumulator, low)
            yield ("ustore", accumulator + 4, high)
            yield ("ustore", turn_addr, rank + 1)
            yield ("fence",)
            yield from lock.release()
            yield from barrier()
            low = yield ("uload", accumulator)
            high = yield ("uload", accumulator + 4)
            total = words_to_float(low, high)

        if rank == 0:
            yield ctx.note("reduce_done")
        results[rank] = total

    return program


def run_dotproduct(config: SystemConfig, params: DotProductParams,
                   max_cycles: int | None = None) -> DotProductResult:
    """Run the distributed dot product on one architecture point."""
    params = DotProductParams(params.n_elements, params.model)
    chunks = chunks_for(params.n_elements, config.n_workers)
    results: dict[int, float] = {}
    system = MedeaSystem(config)
    system.load_programs([
        _make_program(params, chunks, rank, results)
        for rank in range(config.n_workers)
    ])
    total_cycles = system.run(max_cycles=max_cycles)
    marks = system.events.marks(system.rank_to_node[0])
    values = set(results.values())
    if len(values) != 1:
        raise ValidationError(
            f"dotproduct: ranks disagree on the total: {results}"
        )
    return DotProductResult(
        params=params,
        config_label=config.label(),
        total_cycles=total_cycles,
        reduction_cycles=marks["reduce_done"] - marks["reduce_start"],
        value=values.pop(),
        expected=reference_dot(params.n_elements, config.n_workers),
        stats=system.collect_stats(),
    )
