"""SystemConfig validation and derivation."""

from __future__ import annotations

import pytest

from repro.cache.l1 import WritePolicy
from repro.errors import ConfigError
from repro.dse.space import jacobi_sweep_space
from repro.system.config import VALID_CACHE_SIZES_KB, SystemConfig


def test_defaults_validate():
    SystemConfig().validate()


def test_n_nodes_includes_mpmmu():
    assert SystemConfig(n_workers=5).n_nodes == 6


def test_cache_size_conversion():
    assert SystemConfig(cache_size_kb=8).cache_size_bytes == 8192


def test_policy_property():
    assert SystemConfig(cache_policy="wt").policy is WritePolicy.WRITE_THROUGH


def test_label_format():
    config = SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wb")
    assert config.label() == "8P_16k$_WB"


def test_with_changes_copies():
    base = SystemConfig()
    changed = base.with_changes(n_workers=9)
    assert changed.n_workers == 9
    assert base.n_workers != 9


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_workers", 0),
        ("cache_size_kb", 3),
        ("cache_policy", "weird"),
        ("arbiter_mode", "bogus"),
        ("topology_kind", "ring"),
        ("eject_width", 0),
        ("write_buffer_depth", 0),
        ("dma_tx_queue_depth", -1),
        ("ddr_read_latency", 0),
        ("grid", (2, 2)),  # too small for 5 nodes (default 4 workers)
    ],
)
def test_invalid_settings_rejected(field, value):
    with pytest.raises(ConfigError):
        SystemConfig(**{field: value}).validate()


def _enum_fields():
    from repro.apps.cg import CgParams
    from repro.apps.collective_bench import CollectiveBenchParams
    from repro.apps.jacobi.driver import JacobiParams
    from repro.apps.jacobi.models import JacobiModel
    from repro.apps.matmul import MatmulParams
    from repro.apps.stream import StreamParams
    from repro.bridge.arbiter import ArbiterMode, TrafficClass
    from repro.empi.collectives import CollectiveAlgorithm, CommModel
    from repro.empi.runtime import BarrierAlgorithm

    yield SystemConfig, "cache_policy", WritePolicy
    yield SystemConfig, "arbiter_mode", ArbiterMode
    yield SystemConfig, "arbiter_high_priority", TrafficClass
    yield SystemConfig, "empi_barrier", BarrierAlgorithm
    yield JacobiParams, "model", JacobiModel
    for params in (CgParams, CollectiveBenchParams, MatmulParams, StreamParams):
        yield params, "model", CommModel
        yield params, "algorithm", CollectiveAlgorithm


@pytest.mark.parametrize(
    "owner,field,enum_type",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}")
     for case in _enum_fields()],
)
def test_enum_fields_refuse_unknown_values_naming_the_choices(
    owner, field, enum_type
):
    with pytest.raises(ConfigError) as refused:
        built = owner(**{field: "bogus"})
        if owner is SystemConfig:
            built.validate()
    assert "'bogus'" in str(refused.value)
    for member in enum_type:
        assert repr(member.value) in str(refused.value)
    # Case-insensitive strings and members themselves both parse.
    member = next(iter(enum_type))
    for spelling in (member, member.value.upper()):
        built = owner(**{field: spelling})
        if owner is SystemConfig:
            built.validate()


def test_explicit_grid_accepted_when_large_enough():
    SystemConfig(n_workers=4, grid=(3, 2)).validate()


def paper_space_configs():
    """The Section III design space, from the one shape that states it."""
    return [point.config for point in jacobi_sweep_space("paper").points()]


def test_paper_sweep_is_168_points():
    configs = paper_space_configs()
    assert len(configs) == 168  # 14 worker counts x 6 caches x 2 policies
    labels = {config.label() for config in configs}
    assert len(labels) == 168


def test_paper_sweep_axes():
    configs = paper_space_configs()
    assert {c.n_workers for c in configs} == set(range(2, 16))
    assert {c.cache_size_kb for c in configs} == set(VALID_CACHE_SIZES_KB)


@pytest.mark.parametrize("config", [
    SystemConfig(n_workers=8, topology_kind="mesh", grid=(3, 3)),
    SystemConfig(n_workers=4, topology_kind="chiplet", chiplets=2,
                 chiplet_grid=(2, 1)),
])
def test_typed_config_rebuilt_from_json_builds_the_same_machine(config):
    """JSON has no tuples: ``grid`` and ``chiplet_grid`` come back as lists,
    which the memoised topology factory cannot hash and the DSE cache key
    prints differently."""
    import dataclasses
    import json

    from repro.dse.space import config_cache_key
    from repro.pe.costmodel import FpCostModel
    from repro.system.medea import MedeaSystem

    data = json.loads(json.dumps(dataclasses.asdict(config)))
    assert [3, 3] in data.values() or [2, 1] in data.values()
    rebuilt = SystemConfig(**{**data, "fp": FpCostModel(**data["fp"])})
    assert rebuilt == config
    assert config_cache_key(rebuilt) == config_cache_key(config)
    assert MedeaSystem(rebuilt).topology is MedeaSystem(config).topology
    # ... and a list handed over directly, or through with_changes.
    direct = SystemConfig(n_workers=8, grid=[3, 3], chiplet_grid=[2, 1])
    assert (direct.grid, direct.chiplet_grid) == ((3, 3), (2, 1))
    assert direct.with_changes(grid=[4, 3]).grid == (4, 3)
