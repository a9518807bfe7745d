"""FP cost model (Tensilica DP emulation figures)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.pe.costmodel import FpCostModel


def test_paper_defaults():
    cost = FpCostModel()
    assert cost.fp_add == 19
    assert cost.fp_mul_mulhigh == 26
    assert cost.fp_mul_basic == 60


def test_mul_high_option_selects_multiplier():
    assert FpCostModel(use_mul_high=True).fp_mul == 26
    assert FpCostModel(use_mul_high=False).fp_mul == 60


def test_frozen():
    cost = FpCostModel()
    with pytest.raises(AttributeError):
        cost.fp_add = 5  # type: ignore[misc]
    with pytest.raises(AttributeError):
        cost.use_mul_high = False  # type: ignore[misc]


def test_the_core_option_is_the_only_field():
    # The library's figures are constants: no keyword sets one.
    assert [f.name for f in dataclasses.fields(FpCostModel)] == ["use_mul_high"]
    with pytest.raises(TypeError):
        FpCostModel(fp_add=5)  # type: ignore[call-arg]
