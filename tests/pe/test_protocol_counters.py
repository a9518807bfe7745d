"""Every stream-protocol counter of six protocol-heavy allreduce runs.

The golden store's ``protocol_counters`` table (``tests/goldens.py``)
holds, for each run below, the end-to-end cycle count, the validation
verdict, every worker's ``tie`` and ``dma`` counter dict and the fault
counters — the only place the multicast NACK / credit / probe counters
and the DMA retransmit counters are read by a test.  A refactor of the
message path must leave the table unchanged; a drift names the run, the
section, the rank and the counter.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.faults import FaultPlan
from repro.system.config import SystemConfig
from tests.goldens import check

_DMA = {"dma_tx_queue_depth": 4}

#: name -> (allreduce algorithm, SystemConfig overrides)
RUNS: dict[str, tuple[str, dict]] = {
    # Reliable unicast windows: NACK service, absolute credits.
    "tree_lossy_8w": ("tree", {
        "faults": FaultPlan(seed=3, drop_rate=0.02),
    }),
    # The group window under loss and checksum failures.
    "hw_lossy_corrupt_8w": ("hw", {
        **_DMA,
        "faults": FaultPlan(seed=3, drop_rate=0.02, corrupt_rate=0.01),
    }),
    # A multicast descriptor expanded per member, each on its own gate.
    "hw_fallback_lossy_8w": ("hw", {
        **_DMA, "noc_multicast": False,
        "faults": FaultPlan(seed=5, drop_rate=0.02),
    }),
    # Fault-free one-bit-mask descriptors: the engine's unicast send.
    "ring_dma_8w": ("ring", _DMA),
    # Fault-free streams across slow inter-chiplet links.
    "hier_chiplet_16w": ("hier", {
        "n_workers": 16, "topology_kind": "chiplet", "chiplets": 4,
        "chiplet_grid": (2, 2), "chiplet_link_latency": 4,
        "chiplet_link_width": 1,
    }),
    # A credit-eating plan on both channels (``hw`` streams multicast
    # only, so the multicast one fires), repaired by the next token.
    "hw_eaten_credits_8w": ("hw", {
        **_DMA,
        "faults": FaultPlan(
            seed=3, drop_credits=[(2, 1, 1)], drop_mcast_credits=[(1, 2, 1)],
        ),
    }),
}


def measure(name: str) -> dict:
    algorithm, overrides = RUNS[name]
    config = SystemConfig(**{"n_workers": 8, **overrides})
    params = CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=64, repeats=2,
    )
    result = run_collective_bench(config, params, max_cycles=2_000_000)
    stats = result.stats
    return {
        "cycles": result.total_cycles,
        "validated": result.validated,
        "tie": [worker["tie"] for worker in stats["workers"]],
        "dma": [worker["dma"] for worker in stats["workers"]],
        "faults": stats.get("faults", {}),
    }


PIN_KEYS = tuple(RUNS)


def measure_pins() -> dict:
    return {name: measure(name) for name in RUNS}


@pytest.mark.parametrize("name", RUNS)
def test_protocol_counters_are_pinned(name):
    measured = measure(name)
    assert measured["validated"]
    check("protocol_counters", {name: measured})
