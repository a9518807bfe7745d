"""Session-wide quick-scale reports, simulated once for every DSE test.

Their texts are the golden store's ``reports`` pins (``tests/goldens.py``),
one per registered experiment.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.dse.experiments import REGISTRY

PIN_KEYS = tuple(sorted(REGISTRY))


def quick_reports(cache_dir) -> dict:
    """Every registered experiment at quick scale through the inline
    backend, sharing one warm cache directory the way the CLI's figure
    pipeline does (fig7/fig9 reuse fig6/fig8 sweep points)."""
    return {
        name: experiment(full=False, jobs=1, backend="inline",
                         cache_dir=cache_dir)
        for name, experiment in REGISTRY.items()
    }


def measure_pins() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as cache_dir:
        return {name: report.text
                for name, report in quick_reports(cache_dir).items()}


@pytest.fixture(scope="session")
def inline_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inline_cache")


@pytest.fixture(scope="session")
def inline_reports(inline_cache_dir):
    return quick_reports(inline_cache_dir)
