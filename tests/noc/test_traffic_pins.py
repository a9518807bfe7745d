"""Pinned synthetic-traffic outcomes of the bare fabric.

Bernoulli sources on a 4x4 folded torus at three offered rates (light,
where most switch visits hold one flit; medium; saturating) plus one
unicast/multicast mix, each pinned whole: every fabric counter
(injections, ejections, hops, deflections, eject overflows, injection
stalls, multicast copies), the full latency histogram, and the
``TrafficStats`` the public ``run_synthetic_traffic`` returns.  The
golden store's ``synthetic_traffic`` table (``tests/goldens.py``) was
generated on the commit *before* the fabric's lone-flit bypass, so a
routing shortcut that moves one flit differently shows up here.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.apps.synthetic import _TrafficSource, run_synthetic_traffic
from repro.kernel.simulator import Simulator
from repro.noc.flit import MULTICAST_DST, Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.topology import FoldedTorusTopology
from tests.goldens import check

RATES = (0.02, 0.15, 0.45)
CYCLES = 600
DRAIN = 2000
SEED = 7


class _MixSource(_TrafficSource):
    """A Bernoulli source whose every third flit is a 3-way multicast."""

    def step(self, cycle: int) -> None:
        multicast_turn = self.sent % 3 == 2
        if cycle >= self.stop_at or not multicast_turn or self.ports.inject.busy:
            super().step(cycle)
            return
        queue = self.ports.eject.queue
        while queue:
            queue.popleft()
        if self.rng.random() < self.rate:
            n = self.fabric.topology.n_nodes
            others = [node for node in range(n) if node != self.node]
            mask = sum(1 << node for node in self.rng.sample(others, 3))
            flit = Flit(dst=MULTICAST_DST, src=self.node,
                        ptype=PacketType.MULTICAST, dst_mask=mask,
                        data=self.sent & 0xFFFF_FFFF)
            assert self.ports.inject.try_inject(flit)
            self.sent += 1


def fabric_outcome(rate: float, source=_TrafficSource) -> dict:
    """Every counter and the latency histogram of one bare-fabric run."""
    topology = FoldedTorusTopology(4, 4)
    sim = Simulator()
    fabric = NocFabric(topology)
    sim.register(fabric)
    sources = [
        sim.register(source(
            node, fabric, rate, "uniform", stop_at=CYCLES,
            rng=random.Random(SEED * 100_003 + node),
        ))
        for node in range(topology.n_nodes)
    ]
    sim.run(max_cycles=CYCLES + DRAIN)
    latency = fabric.latency
    return {
        "counters": fabric.stats.as_dict(),
        "latency": {
            "count": latency.count, "total": latency.total,
            "min": latency.min, "max": latency.max,
            "buckets": list(latency.buckets),
        },
        "in_flight": fabric.flits_in_network,
        "end_cycle": sim.cycle,
        "sent": [source.sent for source in sources],
    }


PIN_KEYS = (*(f"unicast@{rate}" for rate in RATES), "multicast-mix@0.15")


def measure_pins() -> dict:
    table = {
        f"unicast@{rate}": {
            "fabric": fabric_outcome(rate),
            "traffic_stats": asdict(run_synthetic_traffic(
                rate=rate, cycles=CYCLES, drain_cycles=DRAIN, seed=SEED,
            )),
        }
        for rate in RATES
    }
    table["multicast-mix@0.15"] = {"fabric": fabric_outcome(0.15, _MixSource)}
    return table


@pytest.fixture(scope="module")
def measured() -> dict:
    return measure_pins()


def test_every_case_delivers_everything(measured):
    for name, case in measured.items():
        fabric = case["fabric"]
        counters = fabric["counters"]
        assert fabric["in_flight"] == 0, name
        assert counters["flits_ejected"] == (
            counters["flits_injected"] + counters.get("mcast_copies", 0)
        ), name
    mix = measured["multicast-mix@0.15"]["fabric"]["counters"]
    assert mix["mcast_copies"] > 0 and mix["deflections"] > 0
    assert measured["unicast@0.45"]["fabric"]["counters"]["eject_overflows"] > 0


def test_synthetic_traffic_matches_the_pinned_table(measured):
    check("synthetic_traffic", measured)
