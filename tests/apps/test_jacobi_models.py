"""End-to-end Jacobi: every model validates bit-exactly and measures sanely."""

from __future__ import annotations

import pytest

from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.apps.jacobi.models import (
    JacobiModel,
    make_jacobi_program,
    row_stride,
    shared_grid_bases,
    strip_grid_bases,
)
from repro.apps.jacobi.partition import partition_interior
from repro.errors import ConfigError
from repro.mem.memory_map import MemoryMap
from repro.pe.costmodel import FpCostModel
from repro.pe.program import ProgramContext
from repro.system.config import SystemConfig

MODELS = ["hybrid_full", "hybrid_sync", "pure_sm"]


def test_row_stride_pads_to_lines():
    assert row_stride(16) == 128   # exact multiple already
    assert row_stride(15) == 128   # 120 -> padded
    assert row_stride(30) == 240


def test_layout_bases_disjoint():
    base_a, base_b = shared_grid_bases(16, 0)
    assert base_a == 64
    assert base_b - base_a == 16 * row_stride(16)
    strip_a, strip_b = strip_grid_bases(16, 4, 0x1000)
    assert strip_b - strip_a == 6 * row_stride(16)


def test_model_parse():
    assert JacobiModel.parse("pure_sm") is JacobiModel.PURE_SM
    assert JacobiModel.parse(JacobiModel.HYBRID_FULL) is JacobiModel.HYBRID_FULL
    with pytest.raises(ConfigError):
        JacobiModel.parse("magic")


@pytest.mark.parametrize("model", ["hybrid_full", "hybrid_sync"])
def test_a_messaging_model_without_an_empi_endpoint_is_a_typed_error(model):
    """A hand-built context has no eMPI endpoint bound (the system
    builder binds one): the two models that message say so, under
    ``python -O`` too."""
    ctx = ProgramContext(
        rank=0, n_workers=2, node_id=1, memory_map=MemoryMap(2),
        cost=FpCostModel(), rank_to_node={0: 1, 1: 2},
    )
    program = make_jacobi_program(model, 8, 1, partition_interior(8, 2), 0)
    with pytest.raises(ConfigError, match="no eMPI endpoint bound"):
        next(program(ctx))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_models_validate_bit_exactly(model, n_workers):
    config = SystemConfig(n_workers=n_workers, cache_size_kb=4)
    result = run_jacobi(config, JacobiParams(n=10, iterations=3, model=model))
    assert result.validated
    assert result.max_abs_error == 0.0


def test_jacobi_runs_and_validates_without_numpy():
    """The simulator needs only the standard library: with the numpy import
    blocked, every model still builds its grid, runs and validates."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import json\n"
        "from repro.apps.jacobi.driver import JacobiParams, run_jacobi\n"
        "from repro.system.config import SystemConfig\n"
        "out = []\n"
        "for model, policy in (('hybrid_full', 'wb'), ('hybrid_sync', 'wt'),\n"
        "                      ('pure_sm', 'wb')):\n"
        "    config = SystemConfig(n_workers=4, cache_policy=policy)\n"
        "    params = JacobiParams(n=10, iterations=2, warmup=0, model=model)\n"
        "    result = run_jacobi(config, params)\n"
        "    out.append([model, result.validated, result.max_abs_error])\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert json.loads(done.stdout) == [
        ["hybrid_full", True, 0.0],
        ["hybrid_sync", True, 0.0],
        ["pure_sm", True, 0.0],
    ]


@pytest.mark.parametrize("model", MODELS)
def test_models_validate_under_write_through(model):
    config = SystemConfig(n_workers=2, cache_size_kb=4, cache_policy="wt")
    result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0,
                                             model=model))
    assert result.validated


@pytest.mark.parametrize("model", MODELS)
def test_models_validate_with_tiny_thrashing_cache(model):
    """2 kB cache on a 16x16 problem: eviction paths get exercised."""
    config = SystemConfig(n_workers=2, cache_size_kb=2)
    result = run_jacobi(config, JacobiParams(n=16, iterations=2, warmup=0,
                                             model=model))
    assert result.validated


def test_more_workers_than_rows_still_validates():
    config = SystemConfig(n_workers=6, cache_size_kb=4)
    result = run_jacobi(config, JacobiParams(n=6, iterations=3))
    assert result.validated


def test_even_iteration_count_final_grid_is_a():
    config = SystemConfig(n_workers=2, cache_size_kb=4)
    result = run_jacobi(config, JacobiParams(n=8, iterations=4, warmup=1))
    assert result.validated


def test_iteration_cycles_measured_per_iteration():
    config = SystemConfig(n_workers=2, cache_size_kb=8)
    params = JacobiParams(n=10, iterations=4, warmup=1)
    result = run_jacobi(config, params)
    assert len(result.iteration_cycles) == 4
    measured = result.iteration_cycles[params.warmup:]
    assert len(measured) == 3
    assert result.cycles_per_iteration == pytest.approx(sum(measured) / 3)
    # Warm-up iteration (cold caches) must not be faster than steady state.
    assert result.iteration_cycles[0] >= min(measured)


def test_hybrid_beats_pure_sm_under_contention():
    config = SystemConfig(n_workers=4, cache_size_kb=8)
    params = dict(n=16, iterations=3, warmup=1)
    hybrid = run_jacobi(config, JacobiParams(model="hybrid_full", **params))
    pure = run_jacobi(config, JacobiParams(model="pure_sm", **params))
    assert hybrid.validated and pure.validated
    assert hybrid.cycles_per_iteration < pure.cycles_per_iteration


def test_write_through_slower_than_write_back():
    params = JacobiParams(n=16, iterations=3, warmup=1)
    wb = run_jacobi(SystemConfig(n_workers=4, cache_size_kb=8), params)
    wt = run_jacobi(
        SystemConfig(n_workers=4, cache_size_kb=8, cache_policy="wt"), params
    )
    assert wt.cycles_per_iteration > wb.cycles_per_iteration


def test_bigger_cache_never_slower_when_thrashing():
    params = JacobiParams(n=16, iterations=3, warmup=1)
    small = run_jacobi(SystemConfig(n_workers=1, cache_size_kb=2), params)
    large = run_jacobi(SystemConfig(n_workers=1, cache_size_kb=16), params)
    assert large.cycles_per_iteration <= small.cycles_per_iteration


def test_lock_writes_ablation_slows_hybrid_sync():
    params = dict(n=12, iterations=2, warmup=0)
    plain = run_jacobi(
        SystemConfig(n_workers=2, cache_size_kb=8),
        JacobiParams(model="hybrid_sync", **params),
    )
    locked = run_jacobi(
        SystemConfig(n_workers=2, cache_size_kb=8),
        JacobiParams(model="hybrid_sync", lock_writes=True, **params),
    )
    assert locked.validated
    assert locked.cycles_per_iteration > plain.cycles_per_iteration


def test_memory_requirement_checked():
    config = SystemConfig(n_workers=1, cache_size_kb=2, shared_size=1024)
    with pytest.raises(ConfigError):
        run_jacobi(config, JacobiParams(n=30, model="pure_sm"))


def test_private_requirement_checked():
    config = SystemConfig(n_workers=1, cache_size_kb=2, private_size=1024)
    with pytest.raises(ConfigError):
        run_jacobi(config, JacobiParams(n=30, model="hybrid_full"))


def test_params_validation():
    with pytest.raises(ConfigError):
        JacobiParams(n=2)
    with pytest.raises(ConfigError):
        JacobiParams(iterations=0)
    with pytest.raises(ConfigError):
        JacobiParams(iterations=2, warmup=2)


def test_no_message_traffic_in_pure_sm():
    config = SystemConfig(n_workers=3, cache_size_kb=4)
    result = run_jacobi(
        config, JacobiParams(n=10, iterations=2, warmup=0, model="pure_sm")
    )
    for worker in result.stats["workers"]:
        assert worker["tie"].get("data_flits_sent", 0) == 0
        assert worker["tie"].get("requests_sent", 0) == 0


def test_no_lock_traffic_in_hybrid_full():
    config = SystemConfig(n_workers=3, cache_size_kb=4)
    result = run_jacobi(
        config, JacobiParams(n=10, iterations=2, warmup=0, model="hybrid_full")
    )
    assert result.stats["mpmmu"].get("served_lock", 0) == 0
    assert result.stats["mpmmu"].get("served_unlock", 0) == 0


def test_dissemination_barrier_config_works():
    config = SystemConfig(n_workers=4, cache_size_kb=4,
                          empi_barrier="dissemination")
    result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0))
    assert result.validated


def test_mesh_topology_also_validates():
    config = SystemConfig(n_workers=3, cache_size_kb=4, topology_kind="mesh")
    result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0))
    assert result.validated


@pytest.mark.parametrize("mode", ["mux", "single_fifo", "dual_fifo"])
def test_all_arbiter_modes_validate(mode):
    config = SystemConfig(n_workers=2, cache_size_kb=4, arbiter_mode=mode)
    result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0))
    assert result.validated
