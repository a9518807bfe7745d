"""Declarative sweep spaces: axes, variants, pruning, schema hashing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.collective_bench import CollectiveBenchParams
from repro.apps.jacobi.driver import JacobiParams
from repro.apps.synthetic import SyntheticParams
from repro.bridge.arbiter import ArbiterMode
from repro.cache.l1 import WritePolicy
from repro.dse.space import (
    Axis,
    SweepSpace,
    Variant,
    config_cache_key,
    jacobi_sweep_space,
)
from repro.empi.runtime import BarrierAlgorithm
from repro.errors import ConfigError
from repro.system.config import SystemConfig


def tiny_space(name: str = "t", **kwargs) -> SweepSpace:
    defaults = dict(
        workers=(2, 3), cache_sizes_kb=(4, 8), policies=("wb",),
        params=JacobiParams(n=6, iterations=2, warmup=0),
    )
    defaults.update(kwargs)
    return jacobi_sweep_space(name, **defaults)


def test_points_cross_product():
    space = tiny_space()
    points = space.points()
    assert len(points) == 4 == space.n_points
    labels = {p.config.label() for p in points}
    assert labels == {"2P_4k$_WB", "2P_8k$_WB", "3P_4k$_WB", "3P_8k$_WB"}


def test_points_follow_axis_declaration_order():
    coords = [p.coords_dict for p in tiny_space().points()]
    assert coords[0] == {"workers": 2, "cache_kb": 4, "policy": "wb"}
    # The last axis spins fastest, like nested for-loops.
    assert [c["cache_kb"] for c in coords] == [4, 8, 4, 8]
    assert [c["workers"] for c in coords] == [2, 2, 3, 3]


def test_empty_axis_rejected():
    with pytest.raises(ConfigError):
        Axis("workers", ())


def test_bad_axis_target_rejected():
    with pytest.raises(ConfigError):
        Axis("workers", (1,), target="nowhere")


def test_duplicate_axis_names_rejected():
    with pytest.raises(ConfigError):
        SweepSpace(
            name="dup", app=print,
            axes=(Axis("a", (1,)), Axis("a", (2,))),
        )


def test_key_stability_and_sensitivity():
    space = tiny_space()
    assert space.points()[0].key == space.points()[0].key
    keys = {p.key for p in space.points()}
    assert len(keys) == 4  # every point distinct


def test_key_sensitive_to_workload():
    small = tiny_space(params=JacobiParams(n=8)).points()[0]
    large = tiny_space(params=JacobiParams(n=16)).points()[0]
    assert small.key != large.key


def test_key_sensitive_to_model():
    full = tiny_space(params=JacobiParams(n=8, model="hybrid_full"))
    pure = tiny_space(params=JacobiParams(n=8, model="pure_sm"))
    assert full.points()[0].key != pure.points()[0].key


@pytest.mark.parametrize("field, alias, member", [
    ("cache_policy", "wb", WritePolicy.WRITE_BACK),
    ("cache_policy", "wt", WritePolicy.WRITE_THROUGH),
    ("arbiter_mode", "single_fifo", ArbiterMode.SINGLE_FIFO),
    ("empi_barrier", "dissemination", BarrierAlgorithm.DISSEMINATION),
])
def test_key_is_the_same_for_an_enum_member_and_its_string(field, alias,
                                                           member):
    # One architecture point, one key: a caller passing the enum must hit
    # the points a caller passing the string cached (fig7 reusing fig6).
    by_alias = config_cache_key(SystemConfig(**{field: alias}))
    by_member = config_cache_key(SystemConfig(**{field: member}))
    assert by_alias == by_member
    assert f"{field}={alias}" in by_alias.split("|")


def test_base_config_propagates():
    base = SystemConfig(ddr_read_latency=99)
    space = tiny_space(base_config=base)
    assert space.points()[0].config.ddr_read_latency == 99


def test_schema_hash_ignores_value_lists():
    # Same shape, different values: shared keys let a subset sweep reuse
    # a superset's warm cache (fig7 quick reuses fig6 quick's points).
    wide = tiny_space(policies=("wb", "wt"))
    narrow = tiny_space(policies=("wb",))
    assert wide.schema_hash() == narrow.schema_hash()
    wide_keys = {p.key for p in wide.points()}
    assert {p.key for p in narrow.points()} <= wide_keys


def test_schema_hash_sensitive_to_axis_shape():
    base = tiny_space()
    renamed = SweepSpace(
        name=base.name, app=base.app, app_id=base.app_id,
        axes=(Axis("cores", (2, 3), field="n_workers"),) + base.axes[1:],
        base_config=base.base_config, base_params=base.base_params,
    )
    assert renamed.schema_hash() != base.schema_hash()


def test_schema_hash_sensitive_to_app():
    base = tiny_space()
    other = dataclasses.replace(base, app_id="other_app")
    assert other.schema_hash() != base.schema_hash()


def test_variant_axis_applies_bundled_overrides():
    space = SweepSpace(
        name="v", app=print, app_id="x",
        axes=(
            Axis("variant", (
                Variant("sw", params={"model": "pure_sm"}),
                Variant("hw(q4)", config={"dma_tx_queue_depth": 4},
                        params={"model": "hybrid_full"}),
            )),
        ),
        base_params=JacobiParams(n=6),
    )
    points = space.points()
    assert [p.coords_dict["variant"] for p in points] == ["sw", "hw(q4)"]
    assert points[1].config.dma_tx_queue_depth == 4
    assert str(points[1].params.model) != str(points[0].params.model)
    assert points[0].key != points[1].key


def test_prune_drops_combinations():
    space = SweepSpace(
        name="p", app=print, app_id="x",
        axes=(
            Axis("collective", ("scatter", "bcast"), target="params"),
            Axis("algorithm", ("linear", "tree"), target="params"),
        ),
        base_params=CollectiveBenchParams(),
        prune=lambda c: c["collective"] == "scatter"
        and c["algorithm"] == "tree",
    )
    coords = [p.coords_dict for p in space.points()]
    assert {"collective": "scatter", "algorithm": "tree"} not in coords
    assert len(coords) == 3


def test_a_seed_axis_is_an_ordinary_params_axis():
    space = SweepSpace(
        name="s", app=print, app_id="x",
        axes=(Axis("rate", (0.1,), target="params"),
              Axis("seed", (0, 1), target="params")),
        base_params=SyntheticParams(),
    )
    seeds = [p.params.seed for p in space.points()]
    assert seeds == [0, 1]
    assert len({p.key for p in space.points()}) == 2
