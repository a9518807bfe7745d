"""The distributed CG solver: convergence, bit-identity, overlap win."""

from __future__ import annotations

import pytest

from repro.apps.cg import CgParams, reference_cg, run_cg
from repro.errors import ConfigError
from repro.system.config import SystemConfig


def test_reference_cg_converges():
    x, history = reference_cg(n=32, n_workers=4, iterations=12)
    assert len(x) == 32
    assert len(history) == 13
    # SPD system, exact arithmetic apart: the residual norm collapses.
    assert history[-1] < history[0] * 1e-3


def test_reference_algorithms_agree_on_convergence():
    # Different combine orders give different bits but the same physics.
    __, linear = reference_cg(32, 4, 8, "linear")
    __, tree = reference_cg(32, 4, 8, "tree")
    assert linear[-1] == pytest.approx(tree[-1], rel=1e-9)


@pytest.mark.parametrize("model", ["empi", "pure_sm"])
@pytest.mark.parametrize("overlap", [False, True])
def test_cg_validates_bit_for_bit(model, overlap):
    config = SystemConfig(n_workers=2, cache_size_kb=8)
    result = run_cg(
        config,
        CgParams(n=12, iterations=4, model=model, algorithm="tree",
                 overlap=overlap),
    )
    assert result.validated
    assert result.converged


def test_cg_blocking_and_overlap_agree_across_models():
    """All four (model, overlap) variants deliver the same bits."""
    config = SystemConfig(n_workers=2, cache_size_kb=8)
    outcomes = {}
    for model in ("empi", "pure_sm"):
        for overlap in (False, True):
            result = run_cg(
                config,
                CgParams(n=12, iterations=4, model=model, overlap=overlap),
            )
            assert result.validated
            outcomes[(model, overlap)] = (result.x, result.rr_history)
    baseline = outcomes[("empi", False)]
    for key, outcome in outcomes.items():
        assert outcome == baseline, f"{key} diverged from blocking empi"


def test_overlap_strictly_faster_on_reference_mesh():
    """The acceptance point: 8-worker reference machine, hybrid model —
    overlap must win outright, with measured overlap efficiency."""
    config = SystemConfig(n_workers=8, cache_size_kb=16)
    params = dict(n=64, iterations=10, model="empi", algorithm="tree")
    blocking = run_cg(config, CgParams(overlap=False, **params))
    overlapped = run_cg(config, CgParams(overlap=True, **params))
    assert blocking.validated and overlapped.validated
    assert overlapped.x == blocking.x
    assert overlapped.rr_history == blocking.rr_history
    assert overlapped.total_cycles < blocking.total_cycles
    assert overlapped.overlap_efficiency > 0.5
    assert blocking.overlap_efficiency == 0.0


def test_overlap_instrumentation_present_only_when_overlapping():
    config = SystemConfig(n_workers=2)
    result = run_cg(
        config, CgParams(n=8, iterations=2, model="empi", overlap=True)
    )
    assert any(s.inflight_cycles > 0 for s in result.overlap_per_rank.values())
    assert any(s.coexist_cycles > 0 for s in result.overlap_per_rank.values())


def test_cg_double_run_is_bit_identical():
    config = SystemConfig(n_workers=4)
    params = CgParams(n=16, iterations=3, model="empi", overlap=True)
    first = run_cg(config, params)
    second = run_cg(config, params)
    assert first.total_cycles == second.total_cycles
    assert first.solve_cycles == second.solve_cycles
    assert first.x == second.x
    assert first.stats["workers"] == second.stats["workers"]
    assert first.stats["noc"] == second.stats["noc"]


def test_cg_rejects_more_workers_than_rows():
    with pytest.raises(ConfigError):
        run_cg(SystemConfig(n_workers=4), CgParams(n=3, iterations=1))


def test_cg_params_validation():
    with pytest.raises(ConfigError):
        CgParams(n=0)
    with pytest.raises(ConfigError):
        CgParams(iterations=0)
