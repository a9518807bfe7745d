"""Tiled matrix multiply: bit-exact under every backend and algorithm."""

from __future__ import annotations

import pytest

from repro.apps.matmul import (
    MatmulParams,
    a_value,
    b_value,
    reference_matmul,
    run_matmul,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig


def config_for(n_workers: int) -> SystemConfig:
    return SystemConfig(n_workers=n_workers, cache_size_kb=4)


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
@pytest.mark.parametrize("algorithm", ["linear", "tree"])
def test_matmul_validates_bit_for_bit(model, algorithm):
    result = run_matmul(
        config_for(3),
        MatmulParams(n=6, tile=2, model=model, algorithm=algorithm),
    )
    assert result.validated
    assert result.value == result.expected


def test_reference_agrees_with_numpy():
    np = pytest.importorskip("numpy")
    n, workers = 6, 3
    a = np.array([[a_value(i, k) for k in range(n)] for i in range(n)])
    b = np.array([[b_value(k, j) for j in range(n)] for k in range(n)])
    expected = a @ b
    reference = np.array(reference_matmul(n, workers, tile=2))
    np.testing.assert_allclose(reference, expected, rtol=1e-12)


def test_more_workers_than_k_dimension():
    """Ranks with empty k-slices still join every collective."""
    result = run_matmul(config_for(5), MatmulParams(n=4, tile=4))
    assert result.validated


def test_tile_not_dividing_n():
    result = run_matmul(config_for(2), MatmulParams(n=5, tile=2))
    assert result.validated


def test_single_worker():
    result = run_matmul(config_for(1), MatmulParams(n=4, tile=2))
    assert result.validated


def test_phase_cycles_partition_the_run():
    result = run_matmul(config_for(2), MatmulParams(n=4, tile=2))
    assert result.stage_cycles > 0
    assert result.compute_cycles > 0
    assert result.reduce_cycles > 0
    assert (result.stage_cycles + result.compute_cycles
            + result.reduce_cycles) <= result.total_cycles


def test_hybrid_beats_pure_sm_on_collectives():
    """The paper's claim, on this workload: message passing wins."""
    empi = run_matmul(config_for(4), MatmulParams(n=6, tile=2, model="empi"))
    sm = run_matmul(config_for(4), MatmulParams(n=6, tile=2, model="pure_sm"))
    assert empi.validated and sm.validated
    assert empi.value == sm.value  # same bits either way
    assert empi.reduce_cycles < sm.reduce_cycles


def test_params_validation():
    with pytest.raises(ConfigError):
        MatmulParams(n=0)
    with pytest.raises(ConfigError):
        MatmulParams(n=4, tile=5)
    with pytest.raises(ConfigError):
        MatmulParams(n=4, tile=0)
    with pytest.raises(ConfigError):
        MatmulParams(model="mpi")
