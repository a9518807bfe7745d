"""The sweep service: backends, retries, progress, resumable caching."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import (
    EXECUTOR_BACKENDS,
    SpaceResults,
    auto_jobs,
    get_executor,
    resolve_backend,
    run_space,
)
from repro.dse.runner import ResultCache
from repro.dse.space import Axis, SweepSpace
from repro.errors import ConfigError, SweepError

# -- module-level toy apps: picklable by reference on every backend ----------


def toy_app(config, params) -> dict:
    return {"workers": config.n_workers, "n": params.n,
            "value": config.n_workers * params.n}


def failing_app(config, params) -> dict:
    if params.n == 8:
        raise ValueError("point 8 is cursed")
    return {"n": params.n}


#: Attempt counter for the flaky app; inline backend shares this process.
FLAKY_CALLS: dict[int, int] = {}


def flaky_app(config, params) -> dict:
    FLAKY_CALLS[params.n] = FLAKY_CALLS.get(params.n, 0) + 1
    if FLAKY_CALLS[params.n] == 1:
        raise RuntimeError("transient")
    return {"n": params.n}


def toy_space(name: str = "toy", n_values=(6, 8, 10, 12), app=toy_app,
              workers=(2,)) -> SweepSpace:
    return SweepSpace(
        name=name, app=app, app_id="toy",
        axes=(
            Axis("workers", tuple(workers), field="n_workers"),
            Axis("n", tuple(n_values), target="params"),
        ),
        base_params=JacobiParams(iterations=1, warmup=0),
    )


# -- backend plumbing --------------------------------------------------------


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        get_executor("quantum", 2)


def test_resolve_backend_explicit_wins():
    assert resolve_backend("process", 1) == "process"
    assert resolve_backend(None, 1) == "inline"
    assert resolve_backend(None, 4) == "process"


def test_auto_jobs_caps_at_pending():
    assert auto_jobs(2, None) <= 2
    assert auto_jobs(100, 3) == 3
    assert auto_jobs(0, None) == 1


@pytest.mark.parametrize("backend", sorted(EXECUTOR_BACKENDS))
def test_every_backend_returns_points_in_order(backend):
    results = run_space(toy_space(), backend=backend, jobs=2)
    assert [o.payload["n"] for o in results.outcomes] == [6, 8, 10, 12]
    assert results.n_computed == 4
    assert results.n_cached == 0


def test_inline_reproduces_pool_results(tmp_path):
    inline = run_space(toy_space(), backend="inline", jobs=1)
    pooled = run_space(toy_space(), backend="process", jobs=2)
    assert inline.payloads() == pooled.payloads()


def test_results_addressable_by_coords():
    results = run_space(toy_space(workers=(2, 4)), jobs=1)
    assert results.get(workers=4, n=10) == {"workers": 4, "n": 10,
                                            "value": 40}
    with pytest.raises(KeyError, match="toy"):
        results.get(workers=3, n=10)


# -- reading the space's shape back: axis() and grouped() --------------------


def test_axis_lists_labels_in_declaration_order():
    results = run_space(toy_space(workers=(4, 2), n_values=(10, 6, 8)),
                        jobs=1)
    assert results.axis("workers") == (4, 2)
    assert results.axis("n") == (10, 6, 8)
    with pytest.raises(KeyError, match="ghost"):
        results.axis("ghost")


def test_grouped_folds_points_into_rows_in_point_order():
    results = run_space(toy_space(workers=(4, 2), n_values=(10, 6)), jobs=1)
    by_workers = results.grouped("workers", across="n")
    assert [row for row, __ in by_workers] == [(4,), (2,)]
    assert [list(cells) for __, cells in by_workers] == [[10, 6], [10, 6]]
    assert by_workers[1][1][6] == {"workers": 2, "n": 6, "value": 12}
    # Rows need not be the leading axes: first appearance in point order.
    by_n = results.grouped("n", across="workers")
    assert [row for row, __ in by_n] == [(10,), (6,)]
    assert by_n[0][1] == {4: results.get(workers=4, n=10),
                          2: results.get(workers=2, n=10)}


def test_grouped_leaves_pruned_points_absent():
    space = toy_space(workers=(2, 4), n_values=(6, 8))
    space.prune = lambda coords: coords == {"workers": 4, "n": 8}
    rows = run_space(space, jobs=1).grouped("workers", across="n")
    assert [(row, list(cells)) for row, cells in rows] == [
        ((2,), [6, 8]), ((4,), [6]),
    ]


def test_grouped_must_name_every_axis_once():
    results = SpaceResults(toy_space(), [])
    with pytest.raises(KeyError, match="ghost"):
        results.grouped("workers", across="ghost")
    with pytest.raises(KeyError, match="each of the axes"):
        results.grouped(across="n")  # "workers" would collapse into one cell


def test_progress_callback_sees_every_completion():
    calls: list[tuple[int, int]] = []
    run_space(toy_space(), backend="inline",
              progress=lambda done, total: calls.append((done, total)))
    assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_wall_time_captured_per_point():
    results = run_space(toy_space(), backend="inline")
    assert all(o.wall_seconds >= 0 for o in results.outcomes)
    assert all(o.attempts == 1 for o in results.outcomes)


# -- failure capture and bounded retry ---------------------------------------


def test_failed_points_raise_sweep_error_naming_keys():
    with pytest.raises(SweepError) as excinfo:
        run_space(toy_space(app=failing_app), backend="inline")
    assert "point 8 is cursed" in str(excinfo.value)
    assert len(excinfo.value.failures) == 1


def test_completed_points_persist_even_when_sweep_fails(tmp_path):
    with pytest.raises(SweepError):
        run_space(toy_space(app=failing_app), backend="inline",
                  cache_dir=tmp_path)
    # The three good points were journaled before the failure surfaced.
    cache = ResultCache(tmp_path, "toy")
    good = toy_space(app=failing_app)
    cached = [cache.get_raw(p.key) for p in good.points()]
    assert sum(1 for c in cached if c is not None) == 3


def test_bounded_retry_recovers_transient_failures():
    FLAKY_CALLS.clear()
    results = run_space(toy_space(app=flaky_app), backend="inline",
                        retries=1)
    assert [o.payload["n"] for o in results.outcomes] == [6, 8, 10, 12]
    assert all(o.attempts == 2 for o in results.outcomes)


def test_retry_exhaustion_still_raises():
    with pytest.raises(SweepError):
        run_space(toy_space(app=failing_app), backend="inline", retries=2)


# -- resumable caching -------------------------------------------------------


def test_cache_round_trip_and_hit_accounting(tmp_path):
    first = run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    assert (first.n_computed, first.n_cached) == (4, 0)
    second = run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    assert (second.n_computed, second.n_cached) == (0, 4)
    assert second.payloads() == first.payloads()


def test_fresh_recomputes_but_still_persists(tmp_path):
    run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    fresh = run_space(toy_space(), jobs=1, cache_dir=tmp_path, resume=False)
    assert fresh.n_computed == 4
    again = run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    assert again.n_cached == 4


def test_resume_after_partial_journal(tmp_path):
    space = toy_space()
    points = space.points()
    # Simulate an interrupted sweep: two points journaled, no compact save.
    cache = ResultCache(tmp_path, space.name)
    cache.append(points[0].key, {"workers": 2, "n": 6, "value": 12})
    cache.append(points[1].key, {"workers": 2, "n": 8, "value": 16})
    results = run_space(space, jobs=1, cache_dir=tmp_path)
    assert results.n_cached == 2
    assert results.n_computed == 2
    assert [o.payload["n"] for o in results.outcomes] == [6, 8, 10, 12]


def test_schema_change_discards_cached_points(tmp_path):
    run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    renamed = SweepSpace(
        name="toy", app=toy_app, app_id="toy",
        axes=(
            Axis("cores", (2,), field="n_workers"),  # renamed axis
            Axis("n", (6, 8, 10, 12), target="params"),
        ),
        base_params=JacobiParams(iterations=1, warmup=0),
    )
    results = run_space(renamed, jobs=1, cache_dir=tmp_path)
    assert results.n_cached == 0
    assert results.n_computed == 4


def test_cache_version_bump_discards_points(tmp_path, monkeypatch):
    run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    monkeypatch.setattr("repro.dse.runner.CACHE_VERSION", "999:future")
    results = run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    assert results.n_cached == 0
    assert results.n_computed == 4


# -- kill-and-resume: the acceptance scenario --------------------------------


def _run_and_die_after(cache_dir: str, kill_after: int) -> None:
    """Child-process body: run the sweep inline, SIGKILL after k points."""

    def killer(done: int, total: int) -> None:
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run_space(toy_space(), backend="inline", cache_dir=cache_dir,
              progress=killer)


def test_killed_sweep_resumes_where_it_died(tmp_path):
    kill_after = 2
    child = multiprocessing.Process(
        target=_run_and_die_after, args=(str(tmp_path), kill_after)
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == -signal.SIGKILL

    # The journal holds exactly the points completed before the kill.
    journal = tmp_path / "toy.journal.jsonl"
    assert journal.exists()
    lines = [line for line in journal.read_text().splitlines() if line]
    assert len(lines) == kill_after
    for line in lines:
        json.loads(line)  # every persisted line is complete, not torn

    # Resume: only the remaining points are recomputed.
    results = run_space(toy_space(), jobs=1, cache_dir=tmp_path)
    assert results.n_cached == kill_after
    assert results.n_computed == 4 - kill_after
    assert [o.payload["n"] for o in results.outcomes] == [6, 8, 10, 12]
    # And the resumed run compacted the journal into the store.
    assert not journal.exists()
    assert (tmp_path / "toy.json").exists()
