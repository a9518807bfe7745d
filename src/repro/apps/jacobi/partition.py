"""Row-block partitioning of the Jacobi grid across workers.

The interior rows ``1 .. n-2`` are split into contiguous strips, one per
worker, extras going to the lowest ranks.  With more workers than interior
rows, trailing ranks own zero rows — they still join every barrier (the
paper runs 16x16 on up to 15 cores, where exactly this happens).  CG and
matmul split their index ranges with the same :func:`split_evenly`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class Strip:
    """The contiguous block of interior rows owned by one worker."""

    rank: int
    first_row: int
    n_rows: int

    @property
    def last_row(self) -> int:
        """Last owned row (undefined when empty)."""
        return self.first_row + self.n_rows - 1

    @property
    def empty(self) -> bool:
        return self.n_rows == 0


def split_evenly(count: int, n_workers: int, first: int = 0) -> list[Strip]:
    """``count`` consecutive items from ``first`` as one contiguous strip
    per rank: sizes differ by at most one, the extras go to the lowest
    ranks, and with more ranks than items the trailing strips are empty."""
    base, extra = divmod(count, n_workers)
    strips = []
    for rank in range(n_workers):
        size = base + (1 if rank < extra else 0)
        strips.append(Strip(rank, first, size))
        first += size
    return strips


def partition_interior(n: int, n_workers: int) -> list[Strip]:
    """Split interior rows of an ``n x n`` grid over ``n_workers`` ranks."""
    if n < 3:
        raise ConfigError(f"grid must be at least 3x3, got {n}")
    if n_workers < 1:
        raise ConfigError(f"need at least one worker, got {n_workers}")
    return split_evenly(n - 2, n_workers, first=1)


def prev_owner(strips: list[Strip], rank: int) -> int | None:
    """Rank owning the row just above this strip; None at the top boundary."""
    strip = strips[rank]
    if strip.empty or strip.first_row == 1:
        return None
    target = strip.first_row - 1
    for other in strips:
        if not other.empty and other.first_row <= target <= other.last_row:
            return other.rank
    raise AssertionError("contiguous partition must cover every interior row")


def next_owner(strips: list[Strip], rank: int) -> int | None:
    """Rank owning the row just below this strip; None at the bottom boundary."""
    strip = strips[rank]
    if strip.empty or strip.last_row == len_interior_end(strips):
        return None
    target = strip.last_row + 1
    for other in strips:
        if not other.empty and other.first_row <= target <= other.last_row:
            return other.rank
    raise AssertionError("contiguous partition must cover every interior row")


def len_interior_end(strips: list[Strip]) -> int:
    """Index of the last interior row covered by the partition."""
    last = 0
    for strip in strips:
        if not strip.empty:
            last = max(last, strip.last_row)
    return last
