"""Pure-Python Jacobi reference, with numpy as an independent oracle."""

from __future__ import annotations

import pytest

from repro.apps.jacobi.reference import (
    initial_grid,
    jacobi_reference,
    step_reference,
    stencil,
)


def column(grid, j):
    return [row[j] for row in grid]


def test_initial_grid_boundaries():
    grid = initial_grid(8)
    assert (len(grid), {len(row) for row in grid}) == (8, {8})
    assert all(v == 1.0 for v in grid[0][1:-1])
    assert all(v == -0.5 for v in grid[-1][1:-1])
    assert grid[3][0] == 0.75
    assert grid[3][-1] == 0.25
    assert all(v == 0.0 for row in grid[1:-1] for v in row[1:-1])


def test_initial_grid_rows_are_distinct_objects():
    grid = initial_grid(6)
    assert len({id(row) for row in grid}) == 6
    grid[2][2] = 9.0
    assert [row[2] for row in grid[1:-1]] == [0.0, 9.0, 0.0, 0.0]


def test_initial_grid_too_small():
    with pytest.raises(ValueError):
        initial_grid(2)


def test_step_preserves_boundary():
    grid = initial_grid(6)
    new = step_reference(grid)
    assert new[0] == grid[0]
    assert new[-1] == grid[-1]
    assert column(new, 0) == column(grid, 0)
    assert column(new, -1) == column(grid, -1)


def test_step_does_not_mutate_input():
    grid = initial_grid(6)
    copy = [row[:] for row in grid]
    step_reference(grid)
    assert grid == copy


def test_single_point_update_value():
    grid = initial_grid(3)
    new = step_reference(grid)
    expected = stencil(grid[0][1], grid[2][1], grid[1][0], grid[1][2])
    assert new[1][1] == expected


def test_scalar_stencil_matches_vectorized():
    grid = initial_grid(7)
    new = step_reference(grid)
    for i in range(1, 6):
        for j in range(1, 6):
            assert new[i][j] == stencil(
                grid[i - 1][j], grid[i + 1][j], grid[i][j - 1], grid[i][j + 1]
            )


def test_jacobi_reference_iterates():
    grid = initial_grid(6)
    twice = jacobi_reference(grid, 2)
    assert twice == step_reference(step_reference(grid))


def test_convergence_toward_harmonic_solution():
    """Long Jacobi runs approach the fixed point (residual shrinks)."""
    grid = initial_grid(10)
    early = jacobi_reference(grid, 5)
    late = jacobi_reference(grid, 200)

    def residual(g):
        return max(
            abs(0.25 * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1])
                - g[i][j])
            for i in range(1, len(g) - 1)
            for j in range(1, len(g) - 1)
        )

    assert residual(late) < residual(early) / 10


@pytest.mark.parametrize("iterations", [1, 2, 3, 5, 40])
@pytest.mark.parametrize("n", [3, 4, 7, 46, 60])
def test_reference_matches_the_numpy_oracle_bit_for_bit(n, iterations):
    """numpy's vectorised form of the contract, built independently, lands
    on the same bits as the pure reference.

    After k sweeps every value is a multiple of 4**-k no larger than 1, so
    sums stay exact and any evaluation order agrees until k reaches 27; the
    40-sweep cases are the ones that pin the contract's order.
    """
    np = pytest.importorskip("numpy")
    oracle = np.zeros((n, n), dtype=np.float64)
    oracle[:, 0] = 0.75
    oracle[:, -1] = 0.25
    oracle[0, :] = 1.0
    oracle[-1, :] = -0.5
    grid = initial_grid(n)
    assert np.array(grid).tobytes() == oracle.tobytes()
    for __ in range(iterations):
        acc = oracle[:-2, 1:-1] + oracle[2:, 1:-1]
        acc = acc + oracle[1:-1, :-2]
        acc = acc + oracle[1:-1, 2:]
        oracle = oracle.copy()
        oracle[1:-1, 1:-1] = acc * 0.25
    assert np.array(jacobi_reference(grid, iterations)).tobytes() == oracle.tobytes()
