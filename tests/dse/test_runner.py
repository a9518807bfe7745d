"""The journaled result store and the Jacobi point driver."""

from __future__ import annotations

import json

import pytest

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import PointOutcome, run_space
from repro.dse.runner import CACHE_VERSION, ResultCache, jacobi_app
from repro.dse.space import SweepSpace, jacobi_sweep_space


def tiny_space(name: str = "tiny", **kwargs) -> SweepSpace:
    defaults = dict(
        workers=(1, 2), cache_sizes_kb=(4,), policies=("wb",),
        params=JacobiParams(n=6, iterations=2, warmup=0),
    )
    defaults.update(kwargs)
    return jacobi_sweep_space(name, **defaults)


def run_rows(space: SweepSpace, **kwargs) -> list[PointOutcome]:
    """The space's evaluated points, in point order."""
    return run_space(space, **kwargs).outcomes


def test_jacobi_app_validates():
    point = tiny_space().points()[0]
    payload = jacobi_app(point.config, point.params)
    assert payload["validated"]
    assert payload["cycles_per_iteration"] > 0
    # Measurements only: the point's coordinates are the work item's.
    assert sorted(payload) == [
        "cycles_per_iteration", "iteration_cycles", "total_cycles",
        "validated",
    ]


def test_jacobi_payload_is_deterministic():
    # No wall time inside the cached payload: two evaluations of a point
    # are equal, so a cache never changes what a rerun would have stored.
    point = tiny_space().points()[0]
    assert jacobi_app(point.config, point.params) == jacobi_app(
        point.config, point.params
    )


def test_jacobi_rows_inline_order_matches_points():
    results = run_rows(tiny_space(), jobs=1)
    assert [r.coords["workers"] for r in results] == [1, 2]


def test_jacobi_rows_through_the_process_pool():
    results = run_rows(tiny_space(), jobs=2)
    assert len(results) == 2
    assert all(r.payload["validated"] for r in results)


def test_cache_reuse(tmp_path):
    space = tiny_space("cached")
    first = run_rows(space, jobs=1, cache_dir=tmp_path)
    assert (tmp_path / "cached.json").exists()
    second = run_rows(space, jobs=1, cache_dir=tmp_path)
    assert [r.payload for r in first] == [r.payload for r in second]
    assert all(r.from_cache for r in second)


def test_cache_does_not_leak_across_different_points(tmp_path):
    run_space(tiny_space("shared_name"), jobs=1, cache_dir=tmp_path)
    space_b = tiny_space(
        "shared_name", workers=(1,), cache_sizes_kb=(8,),
    )
    results = run_rows(space_b, jobs=1, cache_dir=tmp_path)
    assert not results[0].from_cache


def test_raw_layer_round_trips(tmp_path):
    # Every experiment stores plain JSON dicts through the same versioned
    # store.
    cache = ResultCache(tmp_path, "raw")
    cache.append("k", {"cycles_per_op": 42.5, "validated": True})
    cache.save()
    reloaded = ResultCache(tmp_path, "raw")
    assert reloaded.get_raw("k") == {"cycles_per_op": 42.5, "validated": True}
    assert reloaded.get_raw("missing") is None


def test_cache_discards_versionless_seed_layout(tmp_path):
    # The pre-versioning layout (a flat key->result dict) must be treated
    # as stale: hot-path changes that alter cycle counts would otherwise
    # be served from the old cache.
    space = tiny_space("versioned")
    first = run_rows(space, jobs=1, cache_dir=tmp_path)
    path = tmp_path / "versioned.json"
    payload = json.loads(path.read_text())
    assert payload["__cache_version__"] == CACHE_VERSION

    # Rewrite the file in the legacy flat layout; the cache must discard it.
    path.write_text(json.dumps(payload["points"]))
    cache = ResultCache(tmp_path, "versioned")
    assert cache.discarded_stale
    assert cache.get_raw(space.points()[0].key) is None

    # A sweep over the discarded cache recomputes and re-versions the file.
    second = run_rows(space, jobs=1, cache_dir=tmp_path)
    assert [r.payload for r in first] == [r.payload for r in second]
    assert "__cache_version__" in json.loads(path.read_text())


def test_cache_discards_mismatched_version(tmp_path):
    space = tiny_space("stale")
    run_space(space, jobs=1, cache_dir=tmp_path)
    path = tmp_path / "stale.json"
    payload = json.loads(path.read_text())
    payload["__cache_version__"] = "0:ancient"
    path.write_text(json.dumps(payload))
    cache = ResultCache(tmp_path, "stale")
    assert cache.discarded_stale
    assert cache.get_raw(space.points()[0].key) is None


def test_cache_matching_version_is_reused(tmp_path):
    space = tiny_space("fresh")
    run_space(space, jobs=1, cache_dir=tmp_path)
    cache = ResultCache(tmp_path, "fresh")
    assert not cache.discarded_stale
    assert cache.get_raw(space.points()[0].key) is not None


# -- the journal: incremental per-point persistence --------------------------


def test_append_persists_each_point_immediately(tmp_path):
    cache = ResultCache(tmp_path, "journal")
    cache.append("a", {"x": 1})
    cache.append("b", {"x": 2})
    # No save(): a brand-new cache instance must still see both points.
    reloaded = ResultCache(tmp_path, "journal")
    assert reloaded.get_raw("a") == {"x": 1}
    assert reloaded.get_raw("b") == {"x": 2}
    assert reloaded.journal_points == 2
    assert cache.journal_path.exists()


def test_save_compacts_journal_into_store(tmp_path):
    cache = ResultCache(tmp_path, "compact")
    cache.append("a", {"x": 1})
    cache.save()
    assert not cache.journal_path.exists()
    reloaded = ResultCache(tmp_path, "compact")
    assert reloaded.get_raw("a") == {"x": 1}
    assert reloaded.journal_points == 0


def test_torn_journal_tail_is_ignored(tmp_path):
    cache = ResultCache(tmp_path, "torn")
    cache.append("a", {"x": 1})
    cache.append("b", {"x": 2})
    # Simulate a crash mid-write: truncate the last line.
    text = cache.journal_path.read_text()
    cache.journal_path.write_text(text[: text.rindex("{")])
    reloaded = ResultCache(tmp_path, "torn")
    assert reloaded.get_raw("a") == {"x": 1}
    assert reloaded.get_raw("b") is None


def test_stale_journal_lines_are_skipped(tmp_path):
    cache = ResultCache(tmp_path, "stale_journal")
    entry = {"v": "0:ancient", "key": "a", "payload": {"x": 1}}
    cache.journal_path.parent.mkdir(parents=True, exist_ok=True)
    cache.journal_path.write_text(json.dumps(entry) + "\n")
    reloaded = ResultCache(tmp_path, "stale_journal")
    assert reloaded.get_raw("a") is None
    assert reloaded.journal_points == 0


def test_half_written_compact_file_falls_back_to_the_journal(tmp_path):
    # A compact file cut short by a kill, the journal beside it still
    # holding every point: loading must treat the file like a stale one
    # and replay the journal, not die decoding.
    cache = ResultCache(tmp_path, "torn_store")
    cache.append("a", {"x": 1})
    cache.append("b", {"x": 2})
    store = {"__cache_version__": CACHE_VERSION,
             "points": {"a": {"x": 1}, "b": {"x": 2}}}
    text = json.dumps(store, indent=1, sort_keys=True)
    cache.path.write_text(text[: len(text) // 2])
    reloaded = ResultCache(tmp_path, "torn_store")
    assert reloaded.discarded_stale
    assert reloaded.get_raw("a") == {"x": 1}
    assert reloaded.get_raw("b") == {"x": 2}
    assert reloaded.journal_points == 2


def test_save_replaces_the_store_atomically(tmp_path, monkeypatch):
    # The new store is complete under a scratch name before it takes the
    # real one; a kill before the rename leaves the previous file intact.
    cache = ResultCache(tmp_path, "atomic")
    cache.append("a", {"x": 1})
    cache.save()
    cache.append("b", {"x": 2})

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.dse.runner.os.replace", killed)
    with pytest.raises(KeyboardInterrupt):
        cache.save()
    reloaded = ResultCache(tmp_path, "atomic")
    assert not reloaded.discarded_stale
    assert reloaded.get_raw("a") == {"x": 1}
    assert reloaded.get_raw("b") == {"x": 2}  # from the surviving journal
