"""Experiment orchestration, run at miniature scale."""

from __future__ import annotations

import pytest

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.experiments import (
    ALL_EXPERIMENTS,
    execution_time_experiment,
    full_scale_requested,
    speedup_area_experiment,
)
from repro.dse.registry import Experiment
from repro.dse.runner import run_sweep
from repro.dse.space import jacobi_sweep_space


def test_registry_covers_every_artifact():
    assert set(ALL_EXPERIMENTS) == {
        "fig6", "fig7", "fig8", "fig9", "compare", "noc", "simspeed",
        "collectives", "hw_collectives", "chiplet_sweep", "matmul",
        "stream", "cg", "fault_sweep",
    }


def test_every_experiment_shares_the_cli_signature():
    """The CLI calls every runner as f(full, jobs, cache_dir)."""
    import inspect

    for name, runner in ALL_EXPERIMENTS.items():
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


def test_execution_time_experiment_miniature(tmp_path):
    report = execution_time_experiment(
        "mini6",
        paper_size=60,
        policies=("wb",),
        paper_caches=(2,),
        full=False,
        jobs=1,
        cache_dir=tmp_path,
        quick_size=8,
        quick_caches=(2, 4),
        quick_workers=(1, 2),
    )
    assert "mini6" in report.text
    assert "2kB$WB" in report.text
    assert len(report.series) == 2
    saved = report.save(tmp_path)
    assert saved.exists()


def test_speedup_area_experiment_miniature(tmp_path):
    report = speedup_area_experiment(
        "mini7", "mini6", 60, (2,),
        full=False, jobs=1, cache_dir=tmp_path,
        quick_size=8, quick_caches=(2, 4),
    )
    assert "speedup" in report.text
    assert "pareto" in report.series
    assert report.series["kill-rule"]
    # Speedup is relative to the smallest-area config: its point is 1.0.
    assert min(s for __, s in report.series["pareto"]) == pytest.approx(1.0)


def test_noc_experiment_quick():
    report = ALL_EXPERIMENTS["noc"](full=False)
    assert "all delivered" in report.text
    assert all(row[-1] == "yes" for row in report.rows)


def test_simspeed_reports_throughput():
    report = ALL_EXPERIMENTS["simspeed"](full=False)
    assert "cycles/sec" in report.text
    assert report.rows[0][2] > 0


def test_collectives_experiment_quick():
    report = ALL_EXPERIMENTS["collectives"](full=False)
    assert "sm/empi" in report.text
    # Every collective appears, and every SM point costs more than eMPI
    # (the paper's headline claim, per collective).
    names = {row[0] for row in report.rows}
    assert names == {"bcast", "reduce", "allreduce", "scatter", "gather"}
    assert all(float(row[-1][:-1]) > 1.0 for row in report.rows)


def test_collectives_experiment_hits_the_result_cache(tmp_path, monkeypatch):
    """Second run with the same cache dir must not simulate anything."""
    first = ALL_EXPERIMENTS["collectives"](full=False, cache_dir=tmp_path)
    assert (tmp_path / "collectives.json").exists()

    import repro.dse.experiments as experiments

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("cache miss: collective point re-simulated")

    monkeypatch.setattr(experiments, "run_collective_bench", boom)
    second = ALL_EXPERIMENTS["collectives"](full=False, cache_dir=tmp_path)
    assert second.rows == first.rows


def test_matmul_experiment_quick():
    report = ALL_EXPERIMENTS["matmul"](full=False)
    assert "reduce sm/empi" in report.text
    assert {row[1] for row in report.rows} == {"linear", "tree"}


def test_stream_experiment_quick():
    report = ALL_EXPERIMENTS["stream"](full=False)
    assert "cyc/blk" in report.text
    assert len(report.series["empi"]) == len(report.series["pure_sm"]) == 2


def test_validation_failure_aborts(tmp_path):
    """A sweep whose results failed validation must raise, not report."""
    space = jacobi_sweep_space(
        "check", workers=(1,), cache_sizes_kb=(4,), policies=("wb",),
        params=JacobiParams(n=6, iterations=2, warmup=0),
    )
    results = run_sweep(space, jobs=1, cache_dir=tmp_path)
    results[0].validated = False
    from repro.dse.experiments import _check_validated

    with pytest.raises(AssertionError):
        _check_validated(results)


def test_registry_entries_are_experiments():
    """Every registry value is a registered Experiment with a help line."""
    for name, experiment in ALL_EXPERIMENTS.items():
        assert isinstance(experiment, Experiment)
        assert experiment.name == name
        assert experiment.help
