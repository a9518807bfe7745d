"""Jacobi experiment driver: build, run, measure, validate.

The paper measures "execution time in clock cycles for an iteration of the
Jacobi algorithm after cache warm-up" (Fig. 6).  The driver reproduces
that protocol: rank 0 records a note at the end of every iteration's
barrier; per-iteration cycles are the differences; the reported figure is
the mean over the post-warm-up iterations.

Every run is validated against the pure-Python reference bit-for-bit, so
performance numbers can never come from a machine that silently computed
the wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.jacobi.models import (
    JacobiModel,
    make_jacobi_program,
    row_stride,
    shared_grid_bases,
    strip_grid_bases,
)
from repro.apps.jacobi.partition import Strip, partition_interior
from repro.apps.jacobi.reference import initial_grid, jacobi_reference
from repro.cache.l1 import WritePolicy
from repro.errors import ConfigError, SimulationError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem


@dataclass
class JacobiParams:
    """One Jacobi experiment: grid size, iteration counts, model."""

    n: int = 16
    iterations: int = 3
    warmup: int = 1
    model: JacobiModel | str = JacobiModel.HYBRID_FULL
    #: None = the model's natural default (II-C locking only in pure_sm).
    lock_writes: bool | None = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConfigError(f"grid must be at least 3x3, got {self.n}")
        if self.iterations < 1:
            raise ConfigError("need at least one iteration")
        if not (0 <= self.warmup < self.iterations):
            raise ConfigError(
                f"warmup ({self.warmup}) must be < iterations ({self.iterations})"
            )
        self.model = JacobiModel.parse(self.model)


@dataclass
class JacobiResult:
    """Everything measured from one run."""

    params: JacobiParams
    config_label: str
    total_cycles: int
    iteration_cycles: list[int]
    cycles_per_iteration: float
    validated: bool
    max_abs_error: float
    stats: dict = field(repr=False, default_factory=dict)


def required_memory_ok(config: SystemConfig, params: JacobiParams) -> None:
    """Fail early when the configured segments cannot hold the problem."""
    stride = row_stride(params.n)
    model = JacobiModel.parse(params.model)
    if model is JacobiModel.HYBRID_FULL:
        strips = partition_interior(params.n, config.n_workers)
        worst_rows = max(strip.n_rows for strip in strips) + 2
        needed = 2 * worst_rows * stride
        if needed > config.private_size:
            raise ConfigError(
                f"private segment of {config.private_size} bytes cannot hold "
                f"two {worst_rows}-row strips ({needed} bytes)"
            )
    else:
        needed = 64 + 2 * params.n * stride
        if needed > config.shared_size:
            raise ConfigError(
                f"shared segment of {config.shared_size} bytes cannot hold "
                f"two {params.n}x{params.n} grids ({needed} bytes)"
            )


def run_jacobi(
    config: SystemConfig,
    params: JacobiParams,
    max_cycles: int | None = None,
    observer=None,
) -> JacobiResult:
    """Run one Jacobi experiment on one architecture point.

    ``observer``, when given, is called with the built
    :class:`MedeaSystem` before the run, so telemetry and attribution
    tooling can inspect it afterwards (the same hook ``run_cg`` and
    ``run_collective_bench`` expose).
    """
    model = JacobiModel.parse(params.model)
    required_memory_ok(config, params)
    strips = partition_interior(params.n, config.n_workers)
    write_back = config.policy is WritePolicy.WRITE_BACK
    factories = [
        make_jacobi_program(
            model,
            params.n,
            params.iterations,
            strips,
            rank,
            write_back=write_back,
            lock_writes=params.lock_writes,
        )
        for rank in range(config.n_workers)
    ]
    system = MedeaSystem(config)
    if observer is not None:
        observer(system)
    system.load_programs(factories)
    total = system.run(max_cycles=max_cycles)

    marks = system.events.marks(system.rank_to_node[0])
    if "start" not in marks:
        raise SimulationError("rank 0 never reached the start barrier")
    boundaries = [marks["start"]]
    for t in range(1, params.iterations + 1):
        label = f"iter:{t}"
        if label not in marks:
            raise SimulationError(f"missing iteration mark {label}")
        boundaries.append(marks[label])
    iteration_cycles = [
        boundaries[i + 1] - boundaries[i] for i in range(params.iterations)
    ]
    measured = iteration_cycles[params.warmup :]
    cycles_per_iteration = sum(measured) / len(measured)

    expected = jacobi_reference(initial_grid(params.n), params.iterations)
    simulated = extract_grid(system, params.n, strips, model, params.iterations)
    validated = simulated == expected
    max_abs_error = max(
        abs(got - want)
        for got_row, want_row in zip(simulated, expected)
        for got, want in zip(got_row, want_row)
    )

    return JacobiResult(
        params=params,
        config_label=config.label(),
        total_cycles=total,
        iteration_cycles=iteration_cycles,
        cycles_per_iteration=cycles_per_iteration,
        validated=validated,
        max_abs_error=max_abs_error,
        stats=system.collect_stats(),
    )


def extract_grid(
    system: MedeaSystem,
    n: int,
    strips: list[Strip],
    model: JacobiModel,
    iterations: int,
) -> list[list[float]]:
    """Read the final grid out of the simulated memory hierarchy.

    Reads go through :meth:`MedeaSystem.debug_read_double`, which sees
    dirty cache lines, so no artificial end-of-run flush is needed (and
    the measured iterations stay unpolluted).
    """
    stride = row_stride(n)
    final_is_b = iterations % 2 == 1
    grid = initial_grid(n)
    if model is JacobiModel.HYBRID_FULL:
        for strip in strips:
            if strip.empty:
                continue
            base_a, base_b = strip_grid_bases(
                n, strip.n_rows, system.map.private_base(strip.rank)
            )
            base = base_b if final_is_b else base_a
            for r in range(1, strip.n_rows + 1):
                global_row = strip.first_row - 1 + r
                for j in range(1, n - 1):
                    grid[global_row][j] = system.debug_read_double(
                        base + r * stride + j * 8
                    )
        return grid
    base_a, base_b = shared_grid_bases(n, system.map.shared.base)
    base = base_b if final_is_b else base_a
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            grid[i][j] = system.debug_read_double(base + i * stride + j * 8)
    return grid
