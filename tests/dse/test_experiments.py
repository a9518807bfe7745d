"""Experiment orchestration, run at miniature scale."""

from __future__ import annotations

from functools import partial

import pytest

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import run_space
from repro.dse.experiments import (
    REGISTRY,
    _summarize_execution_time,
    _summarize_speedup_area,
    full_scale_requested,
)
from repro.dse.registry import Experiment
from repro.dse.space import Axis, SweepSpace, jacobi_sweep_space
from repro.errors import ValidationError


def test_registry_covers_every_artifact():
    assert set(REGISTRY) == {
        "fig6", "fig7", "fig8", "fig9", "compare", "noc",
        "collectives", "hw_collectives", "chiplet_sweep", "matmul",
        "stream", "cg", "fault_sweep", "ablations",
    }


def test_every_experiment_shares_the_cli_signature():
    """The CLI calls every runner as f(full, jobs, cache_dir)."""
    import inspect

    for name, runner in REGISTRY.items():
        parameters = inspect.signature(runner).parameters
        for arg in ("full", "jobs", "cache_dir"):
            assert arg in parameters, f"{name} lacks {arg}"


def test_full_scale_env(monkeypatch):
    monkeypatch.delenv("MEDEA_FULL", raising=False)
    assert not full_scale_requested()
    monkeypatch.setenv("MEDEA_FULL", "1")
    assert full_scale_requested()
    monkeypatch.setenv("MEDEA_FULL", "0")
    assert not full_scale_requested()


def mini_jacobi_space(full: bool) -> SweepSpace:
    return jacobi_sweep_space(
        "mini6_n8", workers=(1, 2), cache_sizes_kb=(2, 4), policies=("wb",),
        params=JacobiParams(n=8, iterations=3, warmup=1),
    )


def test_execution_time_report_miniature(tmp_path):
    """The Fig. 6/8 summary reads its shape from whatever space ran."""
    experiment = Experiment(
        "mini6", "miniature Fig. 6", mini_jacobi_space,
        partial(_summarize_execution_time, "mini6", 6),
    )
    report = experiment(full=False, jobs=1, cache_dir=tmp_path)
    assert "mini6: Jacobi 8x8" in report.text
    assert "8x8, 2 core counts" in report.text
    assert "2kB$WB" in report.text
    assert len(report.series) == 2
    saved = report.save(tmp_path)
    assert saved.exists()


def test_speedup_area_report_miniature(tmp_path):
    experiment = Experiment(
        "mini7", "miniature Fig. 7", mini_jacobi_space,
        partial(_summarize_speedup_area, "mini7", 7),
    )
    report = experiment(full=False, jobs=1, cache_dir=tmp_path)
    assert "speedup" in report.text
    assert "pareto" in report.series
    assert report.series["kill-rule"]
    # Speedup is relative to the smallest-area config: its point is 1.0.
    assert min(s for __, s in report.series["pareto"]) == pytest.approx(1.0)


def test_fig7_quick_is_served_entirely_from_a_fig6_warm_cache(tmp_path):
    """The derived figure shares the execution-time sweep's keys."""
    fig6_space = REGISTRY["fig6"].build_space(False)
    fig7_space = REGISTRY["fig7"].build_space(False)
    assert fig7_space.name == fig6_space.name
    fig6_keys = {point.key for point in fig6_space.points()}
    assert {point.key for point in fig7_space.points()} <= fig6_keys
    # End to end on a one-point sweep of the same shape: whatever the
    # first space stored, the second is served without computing.
    tiny = dict(workers=(1,), cache_sizes_kb=(2,),
                params=JacobiParams(n=6, iterations=2, warmup=0))
    run_space(jacobi_sweep_space("shared", policies=("wb", "wt"), **tiny),
              jobs=1, cache_dir=tmp_path)
    derived = run_space(jacobi_sweep_space("shared", policies=("wb",), **tiny),
                        jobs=1, cache_dir=tmp_path)
    assert (derived.n_computed, derived.n_cached) == (0, 1)


def test_noc_experiment_quick(inline_reports):
    report = inline_reports["noc"]
    assert "all delivered" in report.text
    assert all(row[-1] == "yes" for row in report.rows)


def test_collectives_experiment_quick(inline_reports):
    report = inline_reports["collectives"]
    assert "sm/empi" in report.text
    # Every collective appears, and every SM point costs more than eMPI
    # (the paper's headline claim, per collective).
    names = {row[0] for row in report.rows}
    assert names == {"bcast", "reduce", "allreduce", "scatter", "gather"}
    assert all(float(row[-1][:-1]) > 1.0 for row in report.rows)


def test_collectives_experiment_hits_the_result_cache(inline_reports,
                                                      inline_cache_dir,
                                                      monkeypatch):
    """A rerun over the session's warm cache must not simulate anything."""
    first = inline_reports["collectives"]
    assert (inline_cache_dir / "collectives.json").exists()

    import repro.dse.experiments as experiments

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("cache miss: collective point re-simulated")

    monkeypatch.setattr(experiments, "run_collective_bench", boom)
    second = REGISTRY["collectives"](full=False, jobs=1, backend="inline",
                                     cache_dir=inline_cache_dir)
    assert second.rows == first.rows


def test_matmul_experiment_quick(inline_reports):
    report = inline_reports["matmul"]
    assert "reduce sm/empi" in report.text
    assert {row[1] for row in report.rows} == {"linear", "tree"}


def test_stream_experiment_quick(inline_reports):
    report = inline_reports["stream"]
    assert "cyc/blk" in report.text
    assert len(report.series["empi"]) == len(report.series["pure_sm"]) == 2


def invalid_at_8_app(config, params) -> dict:
    return {"n": params.n, "validated": params.n != 8}


def test_validation_failure_aborts(tmp_path):
    """A sweep with a point that failed validation must raise, not report:
    a typed error naming the space, the failing point and the app."""
    space = SweepSpace(
        name="check", app=invalid_at_8_app,
        axes=(Axis("n", (6, 8), target="params"),),
        base_params=JacobiParams(iterations=1, warmup=0),
    )
    with pytest.raises(ValidationError) as excinfo:
        run_space(space, jobs=1, cache_dir=tmp_path)
    message = str(excinfo.value)
    assert "'check'" in message and "'invalid_at_8_app'" in message
    assert "{'n': 8}" in message
    # Served from the cache, the bad point still aborts the sweep.
    with pytest.raises(ValidationError, match="'n': 8"):
        run_space(space, jobs=1, cache_dir=tmp_path)


def test_registry_entries_are_experiments():
    """Every registry value is a registered Experiment with a help line."""
    for name, experiment in REGISTRY.items():
        assert isinstance(experiment, Experiment)
        assert experiment.name == name
        assert experiment.help
