"""The three NoC-access arbiter configurations of Fig. 3."""

from __future__ import annotations

import pytest

from repro.bridge.arbiter import ArbiterMode, NocAccessArbiter
from repro.errors import ConfigError
from repro.kernel.simulator import Simulator
from repro.noc.flit import Flit
from repro.noc.network import NocFabric
from repro.noc.packet import PacketType
from repro.noc.topology import FoldedTorusTopology


def make_arbiter(mode: str, depth: int = 4, hp: str = "message"):
    sim = Simulator()
    fabric = NocFabric(FoldedTorusTopology(2, 2))
    sim.register(fabric)
    port = fabric.ports_of(0).inject
    arbiter = NocAccessArbiter(port, mode=mode, fifo_depth=depth,
                               high_priority=hp)
    return arbiter, port


def flit(data: int = 0) -> Flit:
    return Flit(dst=1, src=0, ptype=PacketType.MESSAGE, data=data)


def test_mode_parse():
    assert ArbiterMode.parse("mux") is ArbiterMode.MUX
    assert ArbiterMode.parse(ArbiterMode.DUAL_FIFO) is ArbiterMode.DUAL_FIFO
    with pytest.raises(ConfigError):
        ArbiterMode.parse("bogus")


def test_mux_accepts_one_per_side():
    arbiter, __ = make_arbiter("mux")
    assert arbiter.offer_message(flit(1))
    assert not arbiter.offer_message(flit(2))  # slot taken
    assert arbiter.offer_memory(flit(3))       # other side independent


def test_mux_round_robin_on_contention():
    arbiter, port = make_arbiter("mux")
    arbiter.offer_message(flit(1))
    arbiter.offer_memory(flit(2))
    arbiter.tick()
    first = port.pending
    port.pending = None  # simulate the fabric consuming it
    arbiter.tick()
    second = port.pending
    assert first is not None and second is not None
    assert {first.data, second.data} == {1, 2}
    # Round robin: the side granted last loses the next contention round.
    arbiter.offer_message(flit(3))
    arbiter.offer_memory(flit(4))
    port.pending = None
    arbiter.tick()
    third = port.pending
    assert third is not None
    second_was_memory = second.data in (2, 4)
    assert third.data == (3 if second_was_memory else 4)


def test_single_fifo_shares_capacity():
    arbiter, __ = make_arbiter("single_fifo", depth=2)
    assert arbiter.offer_message(flit(1))
    assert arbiter.offer_memory(flit(2))
    assert not arbiter.offer_message(flit(3))  # full: shared queue
    assert arbiter.stats["fifo_full_rejects"] == 1


def test_single_fifo_preserves_arrival_order():
    arbiter, port = make_arbiter("single_fifo", depth=4)
    arbiter.offer_memory(flit(1))
    arbiter.offer_message(flit(2))
    arbiter.tick()
    assert port.pending.data == 1
    port.pending = None
    arbiter.tick()
    assert port.pending.data == 2


def test_dual_fifo_high_priority_wins():
    arbiter, port = make_arbiter("dual_fifo", hp="message")
    arbiter.offer_memory(flit(1))
    arbiter.offer_message(flit(2))
    arbiter.tick()
    assert port.pending.data == 2  # message class is HP
    port.pending = None
    arbiter.tick()
    assert port.pending.data == 1
    assert arbiter.stats["be_grants"] == 1


def test_dual_fifo_priority_configurable():
    arbiter, port = make_arbiter("dual_fifo", hp="memory")
    arbiter.offer_memory(flit(1))
    arbiter.offer_message(flit(2))
    arbiter.tick()
    assert port.pending.data == 1


def test_dual_fifo_independent_capacity():
    arbiter, __ = make_arbiter("dual_fifo", depth=1)
    assert arbiter.offer_message(flit(1))
    assert not arbiter.offer_message(flit(2))
    assert arbiter.offer_memory(flit(3))  # separate queue


def test_tick_respects_busy_port():
    arbiter, port = make_arbiter("dual_fifo")
    arbiter.offer_message(flit(1))
    arbiter.tick()
    assert port.busy
    arbiter.offer_message(flit(2))
    arbiter.tick()  # port still holds flit 1
    assert port.pending.data == 1


def test_has_pending_all_modes():
    for mode in ("mux", "single_fifo", "dual_fifo"):
        arbiter, port = make_arbiter(mode)
        assert not arbiter.has_pending
        arbiter.offer_message(flit(1))
        assert arbiter.has_pending
        arbiter.tick()
        assert not arbiter.has_pending


def test_grant_counts():
    arbiter, port = make_arbiter("dual_fifo")
    arbiter.offer_message(flit(1))
    arbiter.tick()
    assert arbiter.stats["flits_granted"] == 1
