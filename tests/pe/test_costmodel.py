"""FP cost model (Tensilica DP emulation figures)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pe.costmodel import FpCostModel


def test_paper_defaults():
    cost = FpCostModel()
    assert cost.fp_add == 19
    assert cost.fp_mul_mulhigh == 26
    assert cost.fp_mul_basic == 60


def test_mul_high_option_selects_multiplier():
    assert FpCostModel(use_mul_high=True).fp_mul == 26
    assert FpCostModel(use_mul_high=False).fp_mul == 60


def test_invalid_costs_rejected():
    with pytest.raises(ConfigError):
        FpCostModel(fp_add=0)
    with pytest.raises(ConfigError):
        FpCostModel(int_op=-1)


def test_frozen():
    cost = FpCostModel()
    with pytest.raises(AttributeError):
        cost.fp_add = 5  # type: ignore[misc]
