"""pyproject.toml: the package metadata agrees with the code it packages."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro.cli

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def resolve(dotted: str):
    module, __, name = dotted.replace(":", ".").rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_pyproject_declares_no_runtime_dependency_and_the_package_version():
    meta = tomllib.loads(PYPROJECT.read_text())
    project = meta["project"]
    assert project["dependencies"] == []
    assert "numpy" in project["optional-dependencies"]["test"]
    assert project["dynamic"] == ["version"]
    version = resolve(meta["tool"]["setuptools"]["dynamic"]["version"]["attr"])
    assert version == repro.__version__
    assert resolve(project["scripts"]["medea"]) is repro.cli.main
