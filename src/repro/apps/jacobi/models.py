"""The three Jacobi programming models as PE programs.

All variants compute the identical stencil with the identical IEEE
evaluation order (see :mod:`repro.apps.jacobi.reference`); they differ
only in where data lives and how workers synchronize — which is exactly
the axis the paper evaluates.

Memory layouts (shared by the driver for validation):

* shared models — grid A then grid B in the shared segment after a 64-byte
  sync area; rows padded to whole 16-byte cache lines so no line is ever
  shared between two writers (the software coherence protocol of Section
  II-E requires exclusive line ownership);
* hybrid_full — each worker stores its strip (owned rows plus one halo
  row above and below) twice in its *private* segment.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Generator

from repro.apps.jacobi.partition import Strip, next_owner, prev_owner
from repro.apps.jacobi.reference import initial_grid, stencil
from repro.empi.smsync import SharedMemoryBarrier
from repro.errors import ConfigError, parse_enum
from repro.pe.program import ProgramContext

#: Bytes reserved at the bottom of the shared segment for SM-sync state.
SYNC_AREA_BYTES = 64


class JacobiModel(enum.Enum):
    HYBRID_FULL = "hybrid_full"
    HYBRID_SYNC = "hybrid_sync"
    PURE_SM = "pure_sm"

    @classmethod
    def parse(cls, value: "JacobiModel | str") -> "JacobiModel":
        return parse_enum(cls, value, "Jacobi model")


def row_stride(n: int) -> int:
    """Row pitch in bytes: n doubles padded up to whole cache lines."""
    return (n * 8 + 15) & ~15


def shared_grid_bases(n: int, shared_base: int) -> tuple[int, int]:
    """(grid A base, grid B base) inside the shared segment."""
    grid_bytes = n * row_stride(n)
    base_a = shared_base + SYNC_AREA_BYTES
    return base_a, base_a + grid_bytes


def strip_grid_bases(n: int, n_rows: int, private_base: int) -> tuple[int, int]:
    """(grid A base, grid B base) of a worker's private strip storage."""
    strip_bytes = (n_rows + 2) * row_stride(n)
    return private_base, private_base + strip_bytes


def make_jacobi_program(
    model: JacobiModel | str,
    n: int,
    iterations: int,
    strips: list[Strip],
    rank: int,
    write_back: bool = True,
    lock_writes: bool | None = None,
) -> Callable[[ProgramContext], Generator]:
    """Build the program factory for one rank of the chosen model.

    ``lock_writes`` controls the Section II-C shared-write protocol (lock
    line -> write -> flush -> unlock).  It defaults to the model's natural
    setting: required in ``pure_sm`` (nothing else orders accesses), and
    skipped in ``hybrid_sync`` where the message-passing barrier separates
    the producer and consumer phases — the very optimization the paper's
    hybrid approach enables.
    """
    model = JacobiModel.parse(model)
    if model is JacobiModel.HYBRID_FULL:
        return _hybrid_full_factory(n, iterations, strips, rank)
    if lock_writes is None:
        lock_writes = model is JacobiModel.PURE_SM
    return _shared_memory_factory(
        model, n, iterations, strips, rank, write_back, lock_writes,
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load_row(ctx: ProgramContext, row_addr: int, n: int) -> Generator:
    """Load one full row of doubles through the cache."""
    values = []
    for j in range(n):
        value = yield ctx.load_double(row_addr + j * 8)
        values.append(value)
    return values


def _point_cycles(ctx: ProgramContext) -> int:
    """FP + loop cost of one stencil update (3 adds, 1 mul, bookkeeping)."""
    cost = ctx.cost
    return 3 * cost.fp_add + cost.fp_mul + cost.loop_overhead


# ---------------------------------------------------------------------------
# hybrid_full: private strips + message-passing halo exchange + eMPI barrier
# ---------------------------------------------------------------------------


def _hybrid_full_factory(
    n: int, iterations: int, strips: list[Strip], rank: int
) -> Callable[[ProgramContext], Generator]:
    def program(ctx: ProgramContext) -> Generator:
        empi = ctx.empi
        if empi is None:
            raise ConfigError("context has no eMPI endpoint bound")
        strip = strips[rank]
        k = strip.n_rows
        stride = row_stride(n)
        up = prev_owner(strips, rank)
        down = next_owner(strips, rank)
        grid0 = initial_grid(n)

        if k:
            base_a, base_b = strip_grid_bases(n, k, ctx.private_base)
            # Initialize grid A fully (owned rows + the two halo rows).
            for r in range(k + 2):
                global_row = strip.first_row - 1 + r
                for j in range(n):
                    yield ctx.store_double(
                        base_a + r * stride + j * 8, grid0[global_row][j]
                    )
            # Grid B only needs the cells the stencil reads but never
            # writes: global boundary rows and the two boundary columns.
            for r in range(k + 2):
                global_row = strip.first_row - 1 + r
                columns = range(n) if global_row in (0, n - 1) else (0, n - 1)
                for j in columns:
                    yield ctx.store_double(
                        base_b + r * stride + j * 8, grid0[global_row][j]
                    )
        else:
            base_a = base_b = ctx.private_base

        yield from empi.barrier()
        if rank == 0:
            yield ctx.note("start")

        point_cost = _point_cycles(ctx)
        row_cost = ctx.cost.loop_overhead
        cur, nxt = base_a, base_b
        for t in range(1, iterations + 1):
            if k:
                # Halo exchange: edge rows of the read grid travel as eMPI
                # messages; sends complete locally before the receives
                # block, so the pairwise exchange cannot deadlock.
                if up is not None:
                    row = yield from _load_row(ctx, cur + stride, n)
                    yield from empi.send_doubles(up, row)
                if down is not None:
                    row = yield from _load_row(ctx, cur + k * stride, n)
                    yield from empi.send_doubles(down, row)
                halo_above = halo_below = None
                if up is not None:
                    halo_above = yield from empi.recv_doubles(up, n)
                if down is not None:
                    halo_below = yield from empi.recv_doubles(down, n)

                for r in range(1, k + 1):
                    yield ("compute", row_cost)
                    use_halo_up = r == 1 and halo_above is not None
                    use_halo_down = r == k and halo_below is not None
                    row_above = cur + (r - 1) * stride
                    row_below = cur + (r + 1) * stride
                    row_mine = cur + r * stride
                    row_out = nxt + r * stride
                    for j in range(1, n - 1):
                        if use_halo_up:
                            up_v = halo_above[j]
                            yield ("compute", 1)  # receive-buffer read
                        else:
                            up_v = yield ctx.load_double(row_above + j * 8)
                        if use_halo_down:
                            down_v = halo_below[j]
                            yield ("compute", 1)
                        else:
                            down_v = yield ctx.load_double(row_below + j * 8)
                        left_v = yield ctx.load_double(row_mine + (j - 1) * 8)
                        right_v = yield ctx.load_double(row_mine + (j + 1) * 8)
                        value = stencil(up_v, down_v, left_v, right_v)
                        yield ("compute", point_cost)
                        yield ctx.store_double(row_out + j * 8, value)
            yield from empi.barrier()
            if rank == 0:
                yield ctx.note(f"iter:{t}")
            cur, nxt = nxt, cur

    return program


# ---------------------------------------------------------------------------
# hybrid_sync / pure_sm: shared grids + flush/DII protocol
# ---------------------------------------------------------------------------


def _shared_memory_factory(
    model: JacobiModel,
    n: int,
    iterations: int,
    strips: list[Strip],
    rank: int,
    write_back: bool,
    lock_writes: bool,
) -> Callable[[ProgramContext], Generator]:
    def program(ctx: ProgramContext) -> Generator:
        strip = strips[rank]
        k = strip.n_rows
        stride = row_stride(n)
        base_a, base_b = shared_grid_bases(n, ctx.shared_base)
        up = prev_owner(strips, rank)
        down = next_owner(strips, rank)
        grid0 = initial_grid(n)

        if model is JacobiModel.PURE_SM:
            sm_barrier = SharedMemoryBarrier(ctx, ctx.shared_base)
            barrier = sm_barrier.wait
        else:
            if ctx.empi is None:
                raise ConfigError("context has no eMPI endpoint bound")
            barrier = ctx.empi.barrier

        # Storage set: owned interior rows, plus the global boundary rows
        # adjacent to this strip (someone must initialize them).
        init_rows: list[int] = []
        if k:
            if strip.first_row == 1:
                init_rows.append(0)
            init_rows.extend(range(strip.first_row, strip.first_row + k))
            if strip.last_row == n - 2:
                init_rows.append(n - 1)
        for i in init_rows:
            for j in range(n):
                yield ctx.store_double(base_a + i * stride + j * 8, grid0[i][j])
            columns = range(n) if i in (0, n - 1) else (0, n - 1)
            for j in columns:
                yield ctx.store_double(base_b + i * stride + j * 8, grid0[i][j])
        if write_back:
            # Producer obligation (Section II-E): flush what others read.
            for i in init_rows:
                yield from ctx.flush_range(base_a + i * stride, n * 8)
                yield from ctx.flush_range(base_b + i * stride, n * 8)

        yield from barrier()
        if rank == 0:
            yield ctx.note("start")

        point_cost = _point_cycles(ctx)
        row_cost = ctx.cost.loop_overhead
        cur, nxt = base_a, base_b
        for t in range(1, iterations + 1):
            if k:
                # Consumer obligation: invalidate the halo rows a neighbor
                # rewrote last iteration before reading them.
                if up is not None:
                    yield from ctx.invalidate_range(
                        cur + (strip.first_row - 1) * stride, n * 8
                    )
                if down is not None:
                    yield from ctx.invalidate_range(
                        cur + (strip.last_row + 1) * stride, n * 8
                    )
                for i in range(strip.first_row, strip.last_row + 1):
                    yield ("compute", row_cost)
                    row_above = cur + (i - 1) * stride
                    row_below = cur + (i + 1) * stride
                    row_mine = cur + i * stride
                    row_out = nxt + i * stride
                    if lock_writes:
                        # Section II-C write protocol: lock the output
                        # line, write the points it covers, flush, unlock.
                        # One 16-byte line holds two doubles, so the locked
                        # sections advance two columns at a time.
                        for line_start in range(0, n, 2):
                            columns = [
                                j for j in (line_start, line_start + 1)
                                if 1 <= j <= n - 2
                            ]
                            if not columns:
                                continue
                            line_addr = row_out + line_start * 8
                            yield ("lock", line_addr)
                            for j in columns:
                                up_v = yield ctx.load_double(row_above + j * 8)
                                down_v = yield ctx.load_double(row_below + j * 8)
                                left_v = yield ctx.load_double(
                                    row_mine + (j - 1) * 8
                                )
                                right_v = yield ctx.load_double(
                                    row_mine + (j + 1) * 8
                                )
                                value = stencil(up_v, down_v, left_v, right_v)
                                yield ("compute", point_cost)
                                yield ctx.store_double(row_out + j * 8, value)
                            if write_back:
                                yield ("flush", line_addr)
                            yield ("unlock", line_addr)
                    else:
                        for j in range(1, n - 1):
                            up_v = yield ctx.load_double(row_above + j * 8)
                            down_v = yield ctx.load_double(row_below + j * 8)
                            left_v = yield ctx.load_double(row_mine + (j - 1) * 8)
                            right_v = yield ctx.load_double(row_mine + (j + 1) * 8)
                            value = stencil(up_v, down_v, left_v, right_v)
                            yield ("compute", point_cost)
                            yield ctx.store_double(row_out + j * 8, value)
                if write_back and not lock_writes:
                    # Only the rows a neighbor will read need flushing.
                    edge_rows = set()
                    if up is not None:
                        edge_rows.add(strip.first_row)
                    if down is not None:
                        edge_rows.add(strip.last_row)
                    for i in sorted(edge_rows):
                        yield from ctx.flush_range(nxt + i * stride, n * 8)
            yield from barrier()
            if rank == 0:
                yield ctx.note(f"iter:{t}")
            cur, nxt = nxt, cur

    return program
