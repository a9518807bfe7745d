"""Synthetic traffic harness."""

from __future__ import annotations

import pytest

from repro.apps.synthetic import (
    PATTERNS,
    run_synthetic_traffic,
)
from repro.errors import ConfigError, ProtocolError
from repro.noc.network import InjectionPort


def test_uniform_traffic_delivers_everything():
    stats = run_synthetic_traffic(rate=0.1, cycles=800, seed=3)
    assert stats.all_delivered
    assert stats.injected > 0
    assert stats.mean_latency >= 2.0


def test_zero_rate_injects_nothing():
    stats = run_synthetic_traffic(rate=0.0, cycles=200)
    assert stats.injected == 0
    assert stats.ejected == 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_all_patterns_run_and_deliver(pattern):
    stats = run_synthetic_traffic(rate=0.05, cycles=500, pattern=pattern,
                                  seed=11)
    assert stats.all_delivered


def test_hotspot_concentrates_traffic():
    stats = run_synthetic_traffic(rate=0.1, cycles=1500, pattern="hotspot",
                                  seed=5)
    # Node 0 receives ~half of all traffic; its ejection port saturates,
    # so hotspot latency exceeds uniform latency at equal offered load.
    uniform = run_synthetic_traffic(rate=0.1, cycles=1500, pattern="uniform",
                                    seed=5)
    assert stats.mean_latency > uniform.mean_latency


def test_latency_grows_with_load():
    light, heavy = (
        run_synthetic_traffic(rate=rate, cycles=1500, seed=7)
        for rate in (0.02, 0.4)
    )
    assert heavy.mean_latency > light.mean_latency
    assert heavy.deflections_per_flit > light.deflections_per_flit


def test_outliers_exist_under_heavy_load():
    """The paper's 'sporadic high-latency flits' observation."""
    stats = run_synthetic_traffic(rate=0.4, cycles=2000, seed=13)
    assert stats.all_delivered          # ... but no livelock
    assert stats.max_latency > 3 * stats.mean_latency


def test_mesh_topology_supported():
    stats = run_synthetic_traffic(rate=0.05, cycles=500,
                                  topology_kind="mesh", seed=2)
    assert stats.all_delivered


def test_invalid_arguments_rejected():
    with pytest.raises(ConfigError):
        run_synthetic_traffic(rate=1.5)
    with pytest.raises(ConfigError):
        run_synthetic_traffic(pattern="tornado")


def test_deterministic_given_seed():
    first = run_synthetic_traffic(rate=0.1, cycles=600, seed=42)
    second = run_synthetic_traffic(rate=0.1, cycles=600, seed=42)
    assert first.injected == second.injected
    assert first.mean_latency == second.mean_latency
    assert first.deflections == second.deflections


def test_refused_injection_is_a_typed_error(monkeypatch):
    """A slot that reports itself free and then refuses the flit is a
    broken port: ``ProtocolError`` naming the node, under ``python -O``
    too (it was a bare assert)."""
    monkeypatch.setattr(InjectionPort, "try_inject", lambda port, flit: False)
    with pytest.raises(ProtocolError, match=r"node \d+'s injection slot"):
        run_synthetic_traffic(rate=0.5, cycles=50)
