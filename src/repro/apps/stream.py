"""Pipelined producer/consumer stream kernel.

Workers form a linear pipeline: rank 0 generates blocks of doubles, each
stage applies its own affine transform ``y = a * x + b``, and the last
rank is the consumer.  Blocks flow stage to stage while earlier stages
already work on the next block — the classic streaming pattern the TIE
message path was built for.

Collectives bracket the pipeline:

* **scatter** — rank 0 distributes each stage's ``(a, b)`` coefficients;
* **allreduce** — every stage's running sum of the values it emitted is
  sum-reduced across all ranks after the pipeline drains;
* **broadcast from the last rank** — the consumer publishes its final
  checksum to everyone (a non-zero-root broadcast).

Under ``empi`` the blocks ride the TIE streams; under ``pure_sm`` each
pipeline edge is a :class:`~repro.empi.smsync.SharedMemoryChannel`
mailbox, so every block is uncached MPMMU traffic plus flag polling —
the head-to-head the paper's hybrid claim predicts it wins.  Results
validate bit for bit against :func:`reference_stream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    make_comm,
    reference_allreduce,
)
from repro.empi.smsync import SharedMemoryChannel
from repro.errors import ConfigError, ValidationError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


def source_value(block: int, index: int, block_values: int) -> float:
    """Deterministic source stream."""
    return math.sin(0.05 * (block * block_values + index)) + 1.25


def stage_coefficients(rank: int) -> list[float]:
    """Per-stage affine transform ``(a, b)``."""
    return [1.0 + 0.0625 * (rank + 1), 0.25 - 0.03125 * rank]


@dataclass
class StreamParams:
    """One stream experiment."""

    n_blocks: int = 6
    block_values: int = 8
    model: CommModel | str = CommModel.EMPI
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ConfigError("need at least one block")
        if self.block_values < 1:
            raise ConfigError("blocks need at least one value")
        self.model = CommModel.parse(self.model)
        self.algorithm = CollectiveAlgorithm.parse(self.algorithm)


@dataclass
class StreamResult:
    params: StreamParams
    config_label: str
    total_cycles: int
    pipeline_cycles: int
    cycles_per_block: float
    total: float
    checksum: float
    expected_total: float
    expected_checksum: float
    stats: dict = field(repr=False, default_factory=dict)

    @property
    def validated(self) -> bool:
        return (self.total == self.expected_total
                and self.checksum == self.expected_checksum)


def reference_stream(
    params: StreamParams, n_workers: int
) -> tuple[float, float]:
    """(allreduced total, consumer checksum) with exact operation order."""
    sums = [0.0] * n_workers
    for block in range(params.n_blocks):
        values = [
            source_value(block, i, params.block_values)
            for i in range(params.block_values)
        ]
        for rank in range(n_workers):
            a, b = stage_coefficients(rank)
            values = [a * v + b for v in values]
            block_sum = 0.0
            for v in values:
                block_sum += v
            sums[rank] += block_sum
    total = reference_allreduce(
        [[s] for s in sums], "sum", params.algorithm
    )[0]
    return total, sums[n_workers - 1]


def _make_program(params: StreamParams, rank: int, n_workers: int,
                  results: dict[int, tuple[float, float]]):
    def program(ctx):
        cost = ctx.cost
        n_values = params.block_values
        comm = make_comm(
            ctx, params.model, params.algorithm,
            max_values=max(2, n_values),
        )
        last = n_workers - 1

        # Pipeline channels. Under empi the TIE streams are the channel;
        # under pure_sm each edge gets a mailbox after the comm arena.
        inbox = outbox = None
        if params.model is CommModel.PURE_SM and n_workers > 1:
            stride = SharedMemoryChannel.footprint_for(n_values)
            base = ctx.shared_base + comm.footprint

            def channel(edge: int) -> SharedMemoryChannel:
                return SharedMemoryChannel(
                    ctx, base + edge * stride, n_values
                )

            if rank > 0:
                inbox = channel(rank - 1)
            if rank < last:
                outbox = channel(rank)

        # Coefficients arrive by scatter from rank 0.
        chunks = None
        if rank == 0:
            chunks = [stage_coefficients(r) for r in range(n_workers)]
        a, b = yield from comm.scatter(0, chunks, 2)
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("pipeline_start")

        transform_cost = n_values * (cost.fp_mul + cost.fp_add) + cost.loop_overhead
        sum_cost = n_values * cost.fp_add + cost.loop_overhead
        local_sum = 0.0
        for block in range(params.n_blocks):
            if rank == 0:
                values = [
                    source_value(block, i, n_values) for i in range(n_values)
                ]
                yield ("compute", sum_cost)  # generator loop
            elif params.model is CommModel.PURE_SM:
                values = yield from inbox.recv(n_values)
            else:
                values = yield from ctx.empi.recv_doubles(rank - 1, n_values)
            values = [a * v + b for v in values]
            yield ("compute", transform_cost)
            block_sum = 0.0
            for v in values:
                block_sum += v
            yield ("compute", sum_cost)
            local_sum += block_sum
            yield ctx.fp_add()
            if rank < last:
                if params.model is CommModel.PURE_SM:
                    yield from outbox.send(values)
                else:
                    yield from ctx.empi.send_doubles(rank + 1, values)
        if rank == last:
            yield ctx.note("pipeline_done")
        yield from comm.barrier()

        total = yield from comm.allreduce([local_sum], op="sum")
        payload = [local_sum] if rank == last else None
        checksum = yield from comm.bcast(last, payload, 1)
        results[rank] = (total[0], checksum[0])

    return program


def run_stream(config: SystemConfig, params: StreamParams,
               max_cycles: int | None = None) -> StreamResult:
    """Run one stream experiment on one architecture point."""
    params = replace(params)  # a checked copy: __post_init__ runs again
    n_workers = config.n_workers
    results: dict[int, tuple[float, float]] = {}
    system = MedeaSystem(config)
    system.load_programs([
        _make_program(params, rank, n_workers, results)
        for rank in range(n_workers)
    ])
    total_cycles = system.run(max_cycles=max_cycles)
    marks = system.events.marks
    start = marks(system.rank_to_node[0])["pipeline_start"]
    done = marks(system.rank_to_node[n_workers - 1])["pipeline_done"]
    if len(set(results.values())) != 1:
        raise ValidationError(
            f"stream: ranks disagree on the totals: {results}"
        )
    total, checksum = results[0]
    expected_total, expected_checksum = reference_stream(params, n_workers)
    return StreamResult(
        params=params,
        config_label=config.label(),
        total_cycles=total_cycles,
        pipeline_cycles=done - start,
        cycles_per_block=(done - start) / params.n_blocks,
        total=total,
        checksum=checksum,
        expected_total=expected_total,
        expected_checksum=expected_checksum,
        stats=system.collect_stats(),
    )
