"""Golden pure-Python reference for the Jacobi solver.

The simulated programs replicate this computation *operation for
operation* with identical IEEE-754 evaluation order, so results must match
bit-for-bit — any divergence indicates a protocol or coherence bug in the
simulated machine, not numerical noise.

Evaluation order contract (kept in sync with the programs):
``value = (((up + down) + left) + right) * 0.25``.

A grid is a list of ``n`` rows, each its own list of ``n`` floats.
"""

from __future__ import annotations


def initial_grid(n: int) -> list[list[float]]:
    """Deterministic Dirichlet problem: hot top edge, graded side walls."""
    if n < 3:
        raise ValueError(f"grid must be at least 3x3, got {n}")
    interior = [0.75] + [0.0] * (n - 2) + [0.25]
    return [[1.0] * n] + [interior[:] for __ in range(n - 2)] + [[-0.5] * n]


def step_reference(grid: list[list[float]]) -> list[list[float]]:
    """One Jacobi sweep with the contract's FP evaluation order.

    Returns a new grid (boundary copied); ``grid`` is left untouched.
    """
    n = len(grid)
    new = [grid[0][:]]
    for i in range(1, n - 1):
        above, row, below = grid[i - 1], grid[i], grid[i + 1]
        new.append(
            [row[0]]
            + [
                stencil(above[j], below[j], row[j - 1], row[j + 1])
                for j in range(1, n - 1)
            ]
            + [row[-1]]
        )
    new.append(grid[-1][:])
    return new


def jacobi_reference(grid: list[list[float]], iterations: int) -> list[list[float]]:
    """``iterations`` Jacobi sweeps from ``grid`` (input untouched)."""
    current = grid
    for __ in range(iterations):
        current = step_reference(current)
    return current


def stencil(up: float, down: float, left: float, right: float) -> float:
    """Scalar stencil with the exact reference evaluation order."""
    acc = up + down
    acc = acc + left
    acc = acc + right
    return acc * 0.25
