"""Collective microbenchmark driver."""

from __future__ import annotations

import pytest

from repro.apps import collective_bench
from repro.apps.collective_bench import (
    COLLECTIVES,
    CollectiveBenchParams,
    bench_value,
    run_collective_bench,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig


def config_for(n_workers: int) -> SystemConfig:
    return SystemConfig(n_workers=n_workers, cache_size_kb=2)


@pytest.mark.parametrize("collective", COLLECTIVES)
def test_every_collective_benchmarks_and_validates(collective):
    for model in ("empi", "pure_sm"):
        result = run_collective_bench(
            config_for(3),
            CollectiveBenchParams(collective=collective, model=model,
                                  n_values=4, repeats=2),
        )
        assert result.validated, f"{collective}/{model}"
        assert result.op_cycles > 0
        assert result.cycles_per_op == result.op_cycles / 2


def test_sm_costs_more_than_empi():
    """The headline comparison the microbenchmark exists to make."""
    cycles = {}
    for model in ("empi", "pure_sm"):
        result = run_collective_bench(
            config_for(4),
            CollectiveBenchParams(collective="allreduce", model=model),
        )
        assert result.validated
        cycles[model] = result.cycles_per_op
    assert cycles["pure_sm"] > cycles["empi"]


def test_tree_beats_linear_at_scale_for_bcast():
    """log-depth forwarding must beat the root's serial sends."""
    cycles = {}
    for algorithm in ("linear", "tree"):
        result = run_collective_bench(
            config_for(8),
            CollectiveBenchParams(collective="bcast", model="empi",
                                  algorithm=algorithm, n_values=16),
        )
        assert result.validated
        cycles[algorithm] = result.cycles_per_op
    assert cycles["tree"] < cycles["linear"]


def test_params_validation():
    with pytest.raises(ConfigError):
        CollectiveBenchParams(collective="alltoall")
    with pytest.raises(ConfigError):
        CollectiveBenchParams(n_values=0)
    with pytest.raises(ConfigError):
        CollectiveBenchParams(repeats=0)


def test_validation_evaluates_the_reference_once_per_repeat(monkeypatch):
    calls = []
    reference = collective_bench.reference_allreduce

    def counting(*args, **kwargs):
        calls.append(args)
        return reference(*args, **kwargs)

    monkeypatch.setattr(collective_bench, "reference_allreduce", counting)
    result = run_collective_bench(
        config_for(4), CollectiveBenchParams(collective="allreduce", repeats=3)
    )
    assert result.validated
    assert len(calls) == 3


def test_validation_fails_when_one_rank_of_one_repeat_is_wrong(monkeypatch):
    expected = collective_bench._expected

    def one_wrong(params, n_workers, repeat, groups=None):
        vectors = expected(params, n_workers, repeat, groups)
        if repeat == 1:
            vectors[2] = [0.0] * params.n_values
        return vectors

    monkeypatch.setattr(collective_bench, "_expected", one_wrong)
    result = run_collective_bench(
        config_for(3), CollectiveBenchParams(collective="bcast", repeats=2)
    )
    assert not result.validated


def test_expected_vectors_are_indexed_by_rank():
    def vector(rank):
        return [bench_value(rank, 0, 0), bench_value(rank, 0, 1)]

    def expected(collective):
        params = CollectiveBenchParams(collective=collective, n_values=2)
        return collective_bench._expected(params, 3, 0)

    everyone = [vector(0), vector(1), vector(2)]
    assert expected("bcast") == [vector(0)] * 3
    assert expected("scatter") == everyone
    assert expected("gather") == [everyone, None, None]
    at_root, *others = expected("reduce")
    assert others == [None, None]
    assert at_root == collective_bench.reference_reduce(everyone, 0, "sum")
    assert expected("allreduce") == [at_root] * 3


def test_importing_the_collective_workloads_does_not_import_numpy():
    """numpy is a test-only oracle: no process that imports ``repro.apps``
    (sweep workers, the CLI, the Jacobi and collective benchmarks) may
    pay its import, about 12 MiB of peak RSS and 0.15 s."""
    import subprocess
    import sys
    from pathlib import Path

    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.apps.collective_bench, repro.apps.jacobi.driver; "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(collective_bench.__file__).parents[2])},
    )
    assert done.stdout.strip() == "False"
