"""Unit coverage for the fault-injection layer (:mod:`repro.faults`).

The injector is the single hook behind every fault-layer branch: seeded
transient drop/corrupt on links, the end-to-end checksum, permanent link
kills with mask + productive-table recomputation, switch stalls, and
credit eating.  These tests drive it directly — end-to-end recovery is
covered in ``tests/system/test_fault_recovery.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from math import inf

import pytest

from repro.dse.registry import full_scale_requested
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, _crc8, link_name
from repro.kernel.trace import FAULT, RING_LIMIT
from repro.noc.flit import Flit
from repro.noc.packet import PacketType, SubType
from repro.noc.topology import MeshTopology


def make_injector(**plan_kwargs) -> FaultInjector:
    return FaultInjector(FaultPlan(**plan_kwargs), MeshTopology(3, 3))


def data_flit(src=0, dst=4, seq=0, data=0x1234) -> Flit:
    return Flit(dst=dst, src=src, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_DATA), seq=seq, burst=1, data=data)


# -- plan validation --------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(drop_rate=1.5),
    dict(corrupt_rate=-0.1),
    dict(drop_rate=0.6, corrupt_rate=0.6),
    dict(nack_timeout=0),
    dict(nack_backoff=0),
    dict(max_retries=0),
    dict(retx_slots=0),
    dict(retx_slots=1),
    dict(retx_slots=7),   # < CREDIT_WINDOW: the sender could never finish
    dict(retx_slots=17),
    dict(stalls=[(3, 100, 0)]),
    dict(fault_window=(200, 100)),
])
def test_plan_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        FaultPlan(**kwargs).validate()


@pytest.mark.parametrize("retx_slots", [8, 12, 16])
def test_plan_validation_accepts_a_whole_credit_window_or_more(retx_slots):
    FaultPlan(retx_slots=retx_slots).validate()


def test_plan_rejects_nonexistent_link():
    # Node 0 of a 3x3 mesh has no north or west neighbour.
    with pytest.raises(ConfigError, match="does not exist"):
        make_injector(dead_links=[(0, 0, 10)])


def test_plan_coerces_lists_and_stays_asdict_stable():
    plan = FaultPlan(dead_links=[[1, 1, 200]], stalls=[[4, 300, 50]])
    assert plan.dead_links == ((1, 1, 200),)
    assert plan.stalls == ((4, 300, 50),)
    # The DSE cache key uses dataclasses.asdict; it must not raise and
    # must be order-stable.
    assert dataclasses.asdict(plan) == dataclasses.asdict(
        FaultPlan(dead_links=((1, 1, 200),), stalls=((4, 300, 50),))
    )


# -- seeded transient faults ------------------------------------------------


def test_same_seed_same_drop_decisions():
    def decisions(seed):
        injector = make_injector(seed=seed, drop_rate=0.3)
        return [
            injector.on_link(0, 1, data_flit(seq=i), cycle=i)
            for i in range(64)
        ]

    first = decisions(42)
    assert first == decisions(42)
    assert False in first and True in first  # both outcomes exercised
    assert first != decisions(43)


def test_only_stream_data_flits_are_dropped():
    injector = make_injector(drop_rate=1.0)
    request = Flit(dst=4, src=0, ptype=PacketType.MESSAGE,
                   subtype=int(SubType.MSG_REQUEST), data=0x7F00_0000)
    assert injector.on_link(0, 1, request, cycle=5)  # control: untouched
    assert not injector.on_link(0, 1, data_flit(), cycle=5)
    retx = data_flit()
    retx.subtype = int(SubType.MSG_RETX)
    assert not injector.on_link(0, 1, retx, cycle=6)  # retransmits too


def test_fault_window_and_links_restrict_transients():
    injector = make_injector(
        drop_rate=1.0, fault_window=(100, 200), fault_links=[(0, 1)]
    )
    assert injector.on_link(0, 1, data_flit(), cycle=99)    # before window
    assert injector.on_link(0, 1, data_flit(), cycle=200)   # after window
    assert injector.on_link(2, 2, data_flit(), cycle=150)   # other link
    assert not injector.on_link(0, 1, data_flit(), cycle=150)
    assert injector.counts.as_dict()["dropped"] == 1


def test_corruption_is_caught_at_ejection():
    injector = make_injector(seed=9, corrupt_rate=1.0)
    flit = data_flit(data=0xCAFE)
    injector.stamp(flit)
    assert injector.check_eject(flit, node=4, cycle=10)  # clean round trip
    injector.on_link(0, 1, flit, cycle=11)  # flips one payload bit
    assert flit.data != 0xCAFE
    assert not injector.check_eject(flit, node=4, cycle=12)
    counters = injector.counts.as_dict()
    assert counters["corrupted"] == 1
    assert counters["crc_dropped"] == 1


#: The checksum's protected fields and their widths in bits, in its
#: byte layout's order.
_PROTECTED = (("src", 16), ("ptype", 8), ("subtype", 8), ("seq", 16),
              ("burst", 8), ("data", 32))


def _reference_crc8(flit) -> int:
    """CRC-8, polynomial 0x07, bit by bit over the 11-byte layout."""
    message = b"".join(
        int(getattr(flit, name)).to_bytes(width // 8, "big")
        for name, width in _PROTECTED
    )
    crc = 0
    for byte in message:
        crc ^= byte
        for _ in range(8):
            crc = (crc << 1 ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
    return crc


def _drawn_flits(count: int, seed: int = 37):
    """``count`` flits with every protected field drawn over its width."""
    rng = random.Random(seed)
    for _ in range(count):
        yield Flit(dst=rng.randrange(9), src=rng.randrange(1 << 16),
                   ptype=rng.choice((PacketType.MESSAGE, PacketType.MULTICAST)),
                   subtype=rng.randrange(1 << 8), seq=rng.randrange(1 << 16),
                   burst=rng.randrange(1 << 8), data=rng.randrange(1 << 32))


def test_checksum_is_the_crc8_of_the_protected_layout():
    for flit in _drawn_flits(500):
        assert _crc8(flit.src, flit.ptype, flit.subtype, flit.seq,
                     flit.burst, flit.data) == _reference_crc8(flit), flit


def test_every_one_and_two_bit_flip_of_the_protected_fields_is_caught():
    """Hamming distance 4 over the 88 protected bits (the ``_crc8``
    docstring): ``check_eject`` rejects every 1- and 2-bit error of every
    drawn flit, 3 916 patterns each.  The CRC is linear, so a pattern's
    verdict is the same on every flit; the draws hold the table lookups
    to it over every byte's range (a hundred flits, about 2 s;
    ``MEDEA_FULL=1``: 3 000)."""
    bits = [(name, 1 << bit) for name, width in _PROTECTED
            for bit in range(width)]
    patterns = [(flip,) for flip in bits] + list(
        itertools.combinations(bits, 2)
    )
    injector = make_injector()
    n_flits = 3000 if full_scale_requested() else 100
    for flit in _drawn_flits(n_flits):
        injector.stamp(flit)
        for pattern in patterns:
            for name, bit in pattern:
                setattr(flit, name, getattr(flit, name) ^ bit)
            assert not injector.check_eject(flit, node=4, cycle=0), (
                flit, pattern
            )
            for name, bit in pattern:
                setattr(flit, name, getattr(flit, name) ^ bit)
        assert injector.check_eject(flit, node=4, cycle=0)
    assert injector.counts["crc_dropped"] == n_flits * len(patterns)


def test_trace_replays_and_counts():
    injector = make_injector(seed=1, drop_rate=0.5)
    for i in range(32):
        injector.on_link(1, 2, data_flit(seq=i), cycle=i)
    counters = injector.counts.as_dict()
    dropped = [
        event for event in injector.events.of_kind(FAULT)
        if event.key == "dropped"
    ]
    assert counters["dropped"] == len(dropped) > 0


def test_describe_quotes_the_newest_events_past_the_ring_bound():
    """Hang reports must show the end of the run: once more fault events
    than the ring holds have fired, ``describe()`` still names the last
    ones (the evicted head is counted in the log's ``dropped``)."""
    injector = make_injector()
    total = RING_LIMIT + 10
    for cycle in range(total):
        injector.note(cycle, "dropped", 1, 2, 0, 4, cycle & 0xFFFF)
    assert injector.counts.get("dropped") == total
    assert injector.events.dropped == 10
    report = injector.describe()
    for cycle in range(total - 3, total):
        assert f"cycle {cycle}: dropped" in report
    assert "cycle 0:" not in report


# -- permanent kills and the rerouted productive table ----------------------


def test_kill_link_masks_both_directions():
    injector = make_injector(dead_links=[(1, 1, 50)])
    full_1 = injector.out_mask(1)
    injector.advance(50)
    assert injector.masks_active
    assert not injector.out_mask(1) & (1 << 1)  # 1->E dead
    assert not injector.out_mask(2) & (1 << 3)  # 2->W dead (symmetric)
    assert injector.out_mask(1) != full_1
    assert injector.events.of_kind(FAULT) == [
        (50, 1, FAULT, "link_killed", (1,))
    ]


def test_kill_recomputes_productive_directions():
    # Killing 1->E leaves node 2 reachable only through node 5 (south):
    # the rerouted table must steer 5's traffic for node 1 away from the
    # node-2 cul-de-sac, and node 2's only productive direction anywhere
    # is S.  Without this, X-Y preference livelocks the fabric (the
    # oldest flit ping-pongs 5<->2 and starves everyone else).
    injector = make_injector(dead_links=[(1, 1, 0)])
    injector.advance(0)
    table = injector.productive_override
    assert table is not None
    n = 9
    south = 2
    assert table[5 * n + 1] == (3,)       # node 5 -> node 1: west only
    for dst in range(n):
        if dst != 2:
            assert table[2 * n + dst] == (south,)
    # Every pair is still connected on this mesh — no empty entries.
    assert all(table[s * n + d] for s in range(n) for d in range(n) if s != d)


def test_stall_masks_neighbours_and_restores():
    injector = make_injector(stalls=[(4, 100, 20)])
    assert injector.next_due == 100  # nothing to do before it
    injector.advance(99)
    assert not injector.masks_active
    injector.advance(100)
    assert injector.stalled(4)
    assert injector.next_due == 120  # the stall's end
    # Every neighbour of the centre node stops feeding it.
    assert not injector.out_mask(1) & (1 << 2)  # 1->S
    assert not injector.out_mask(7) & (1 << 0)  # 7->N
    injector.advance(120)
    assert not injector.stalled(4)
    assert injector.out_mask(1) & (1 << 2)
    assert not injector.masks_active
    assert injector.next_due == inf
    # Stalls never touch the productive table (transient by design).
    assert injector.productive_override is None


# -- credit eating ----------------------------------------------------------


def test_credit_eating_is_bounded():
    injector = make_injector(drop_credits=[(3, 1, 2)],
                             drop_mcast_credits=[(3, 1, 1)])
    assert injector.eat_credit(3, 1)
    assert injector.eat_credit(3, 1)
    assert not injector.eat_credit(3, 1)   # budget exhausted
    assert not injector.eat_credit(5, 1)   # other node untouched
    assert injector.eat_credit(3, 1, channel=1)
    assert not injector.eat_credit(3, 1, channel=1)
    counters = injector.counts.as_dict()
    assert counters["credits_eaten"] == 2
    assert counters["mcast_credits_eaten"] == 1


def test_describe_names_seed_and_gave_up():
    injector = make_injector(seed=77, drop_rate=1.0)
    injector.on_link(0, 1, data_flit(), cycle=3)
    injector.gave_up.append("pe[2] gave up on nack to node 1")
    text = injector.describe()
    assert "seed=77" in text
    assert "dropped=1" in text
    assert "gave up" in text
    assert link_name(0, 1) == "0->E"
