"""Every registered experiment, through both backends, bit for bit.

All registered experiments run once through the inline backend
(``--backend inline --jobs 1``, the deterministic baseline: the
session-scoped ``inline_reports`` of ``conftest.py``), sharing one warm
cache directory the way the CLI's figure pipeline does (fig7/fig9 reuse
fig6/fig8 sweep points); the reports must equal the pinned texts byte for
byte.  Through the process pool they must agree row for row — simulated
cycles cannot depend on the backend or on scheduling order — which is a
property of ``dse/executor.py``, not of an experiment.  So the process
pass runs ``POOLED``, the fewest experiments that together call every
``app`` callable and use every space feature: ``fig8`` (``jacobi_app``),
``collectives`` (``prune``), ``hw_collectives`` (``Variant`` values, a
list of spaces), ``cg``, ``matmul``, ``stream`` and ``noc``; every other
experiment is checked to use nothing they do not.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dse.experiments import REGISTRY
from repro.dse.space import Variant

#: Quick-scale report texts (``python -m repro <name> --jobs 1``, the
#: saved ``<name>.txt``); regenerate one only when its report is meant to
#: change.
REPORT_PINS = Path(__file__).parent / "report_pins"
#: The experiments the process pass runs (module docstring).
POOLED = ("cg", "collectives", "fig8", "hw_collectives", "matmul", "noc",
          "stream")


def features(name: str) -> set:
    """The ``app`` callables and space features ``name``'s points use."""
    built = REGISTRY[name].build_space(False)
    spaces = built if isinstance(built, list) else [built]
    return {space.app for space in spaces} | {
        feature for space in spaces for feature, used in (
            ("a list of spaces", spaces is built),
            ("prune", space.prune is not None),
            ("Variant", any(isinstance(value, Variant)
                            for axis in space.axes for value in axis.values)),
        ) if used
    }


@pytest.fixture(scope="module")
def process_reports(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("process_cache")
    return {
        name: REGISTRY[name](full=False, jobs=2, backend="process",
                             cache_dir=cache_dir)
        for name in POOLED
    }


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_inline_and_process_backends_agree(name, inline_reports,
                                           process_reports):
    if name not in POOLED:
        assert features(name) <= set().union(*map(features, POOLED))
        return
    inline, pooled = inline_reports[name], process_reports[name]
    assert inline.rows == pooled.rows
    assert inline.series == pooled.series
    assert inline.text == pooled.text


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_second_run_is_deterministic_and_cache_served(name, inline_reports,
                                                      inline_cache_dir):
    """Double-run determinism: a rerun over the warm cache is identical."""
    rerun = REGISTRY[name](full=False, jobs=1, backend="inline",
                           cache_dir=inline_cache_dir)
    assert rerun.rows == inline_reports[name].rows
    assert rerun.text == inline_reports[name].text


def test_every_experiment_has_a_pinned_report():
    assert {path.stem for path in REPORT_PINS.glob("*.txt")} == set(REGISTRY)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_quick_report_matches_its_pin(name, inline_reports):
    pinned = (REPORT_PINS / f"{name}.txt").read_text()
    assert inline_reports[name].text == pinned
