"""Session-wide quick-scale reports, simulated once for every DSE test."""

from __future__ import annotations

import pytest

from repro.dse.experiments import REGISTRY


@pytest.fixture(scope="session")
def inline_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inline_cache")


@pytest.fixture(scope="session")
def inline_reports(inline_cache_dir):
    """Every registered experiment at quick scale through the inline
    backend, sharing one warm cache directory the way the CLI's figure
    pipeline does (fig7/fig9 reuse fig6/fig8 sweep points)."""
    return {
        name: experiment(full=False, jobs=1, backend="inline",
                         cache_dir=inline_cache_dir)
        for name, experiment in REGISTRY.items()
    }
