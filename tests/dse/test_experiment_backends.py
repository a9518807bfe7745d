"""Every registered experiment: its report pinned, its rerun cache-served.

All registered experiments run once through the inline backend
(``--backend inline --jobs 1``, the deterministic baseline: the
session-scoped ``inline_reports`` of ``conftest.py``), sharing one warm
cache directory; each report must equal its pinned text in the golden
store byte for byte, and a rerun over the warm cache must be identical
without simulating a point.

Agreement with the process pool is a property of ``dse/executor.py``,
not of an experiment: ``run_space`` resolves ``Variant`` values,
``prune`` and lists of spaces into work items in the parent process, and
a pool worker only runs ``_run_work(item)``.  So the process pass runs
one point of each ``app`` callable through both backends, and each
experiment's test reads the points of the apps it calls.
"""

from __future__ import annotations

import pytest

from repro.dse import executor
from repro.dse.executor import _run_work, get_executor
from repro.dse.experiments import REGISTRY
from tests.goldens import check


def spaces(name: str) -> list:
    built = REGISTRY[name].build_space(False)
    return built if isinstance(built, list) else [built]


@pytest.fixture(scope="module")
def app_payloads() -> dict:
    """backend -> app -> (payload, error) of the app's first point."""
    items = {}
    for name in REGISTRY:
        for space in spaces(name):
            items.setdefault(space.app, space.points()[0])
    payloads = {}
    for backend in ("inline", "process"):
        pool = get_executor(backend, 2)
        try:
            payloads[backend] = {
                item.app: (payload, error) for item, payload, __, error
                in pool.imap_unordered(_run_work, items.values())
            }
        finally:
            pool.close()
    return payloads


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_inline_and_process_backends_agree(name, app_payloads):
    for space in spaces(name):
        payload, error = app_payloads["inline"][space.app]
        assert error is None
        assert app_payloads["process"][space.app] == (payload, None)


def _never(item):  # pragma: no cover - must never run
    raise AssertionError(f"cache miss: {item.key} simulated again")


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_second_run_is_deterministic_and_cache_served(name, inline_reports,
                                                      inline_cache_dir,
                                                      monkeypatch):
    """Double-run determinism: a rerun over the warm cache is identical
    and simulates nothing."""
    monkeypatch.setattr(executor, "_run_work", _never)
    rerun = REGISTRY[name](full=False, jobs=1, backend="inline",
                           cache_dir=inline_cache_dir)
    assert rerun.rows == inline_reports[name].rows
    assert rerun.text == inline_reports[name].text


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_quick_report_matches_its_pin(name, inline_reports):
    check("reports", {name: inline_reports[name].text})
