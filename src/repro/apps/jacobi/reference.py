"""Golden numpy reference for the Jacobi solver.

The simulated programs replicate this computation *operation for
operation* with identical IEEE-754 evaluation order, so results must match
bit-for-bit — any divergence indicates a protocol or coherence bug in the
simulated machine, not numerical noise.

Evaluation order contract (kept in sync with the programs):
``value = (((up + down) + left) + right) * 0.25``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


def initial_grid(n: int) -> np.ndarray:
    """Deterministic Dirichlet problem: hot top edge, graded side walls."""
    # Imported where it is named (here and in ``run_jacobi``'s validation):
    # ``repro.apps`` is imported by every sweep worker, the CLI and the
    # collective workloads, which never touch a grid — 16 MiB and 0.2 s.
    import numpy as np

    if n < 3:
        raise ValueError(f"grid must be at least 3x3, got {n}")
    grid = np.zeros((n, n), dtype=np.float64)
    grid[:, 0] = 0.75
    grid[:, -1] = 0.25
    grid[0, :] = 1.0
    grid[-1, :] = -0.5
    return grid


def step_reference(grid: np.ndarray) -> np.ndarray:
    """One Jacobi sweep with the contract's FP evaluation order."""
    new = grid.copy()
    acc = grid[:-2, 1:-1] + grid[2:, 1:-1]
    acc = acc + grid[1:-1, :-2]
    acc = acc + grid[1:-1, 2:]
    new[1:-1, 1:-1] = acc * 0.25
    return new


def jacobi_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
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
