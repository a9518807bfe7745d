"""pif2NoC bridge FSM, driven with hand-built reply flits."""

from __future__ import annotations

import pytest

from repro.bridge.pif import MemTransaction
from repro.bridge.pif2noc import AddressLut, Pif2NocBridge
from repro.errors import ProtocolError
from repro.noc.flit import Flit
from repro.noc.packet import PacketType, SubType

MPMMU = 0
NODE = 3


def make_bridge() -> Pif2NocBridge:
    return Pif2NocBridge(NODE, AddressLut(MPMMU))


def reply(ptype: PacketType, subtype: SubType, seq: int = 0, data: int = 0) -> Flit:
    return Flit(dst=NODE, src=MPMMU, ptype=ptype, subtype=int(subtype),
                seq=seq, data=data)


def drain_output(bridge: Pif2NocBridge) -> list[Flit]:
    sent = []
    while bridge._outgoing:  # what the node offers the arbiter, head first
        sent.append(bridge._outgoing[0])
        bridge.output_sent()
    return sent


def test_lut_default_and_ranges():
    lut = AddressLut(default_node=0)
    assert lut.lookup(0x1234) == 0
    lut.add_range(0x1000, 0x1000, 5)
    assert lut.lookup(0x1800) == 5
    assert lut.lookup(0x2000) == 0


def test_block_read_protocol():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.BLOCK_READ, 0x100)
    bridge.start(txn, cycle=10)
    request = drain_output(bridge)
    assert len(request) == 1
    assert request[0].dst == MPMMU
    assert request[0].subtype == int(SubType.ADDR)
    assert request[0].data == 0x100
    # Replies arrive out of order.
    for seq, word in [(2, 30), (0, 10), (3, 40)]:
        assert bridge.on_reply(
            reply(PacketType.BLOCK_READ, SubType.DATA, seq, word), 20 + seq
        ) is None
    done = bridge.on_reply(reply(PacketType.BLOCK_READ, SubType.DATA, 1, 20), 30)
    assert done is txn
    assert txn.read_words == [10, 20, 30, 40]
    assert txn.latency == 20
    assert bridge.idle


def test_single_read_protocol():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.SINGLE_READ, 0x44)
    bridge.start(txn, 0)
    drain_output(bridge)
    done = bridge.on_reply(reply(PacketType.SINGLE_READ, SubType.DATA, 0, 99), 5)
    assert done is txn
    assert txn.read_words == [99]


def test_write_protocol_req_ack_data_ack():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.BLOCK_WRITE, 0x200,
                         write_words=[1, 2, 3, 4])
    bridge.start(txn, 0)
    request = drain_output(bridge)
    assert len(request) == 1  # request only; data awaits the grant
    assert bridge.on_reply(reply(PacketType.BLOCK_WRITE, SubType.ACK), 5) is None
    data_flits = drain_output(bridge)
    assert [f.data for f in data_flits] == [1, 2, 3, 4]
    assert [f.seq for f in data_flits] == [0, 1, 2, 3]
    assert all(f.subtype == int(SubType.DATA) for f in data_flits)
    done = bridge.on_reply(reply(PacketType.BLOCK_WRITE, SubType.ACK), 12)
    assert done is txn
    assert bridge.idle


def test_lock_granted_and_nacked():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.LOCK, 0x40)
    bridge.start(txn, 0)
    drain_output(bridge)
    done = bridge.on_reply(reply(PacketType.LOCK, SubType.ACK), 3)
    assert done is txn and txn.granted is True

    txn2 = MemTransaction(PacketType.LOCK, 0x40)
    bridge.start(txn2, 10)
    drain_output(bridge)
    done = bridge.on_reply(reply(PacketType.LOCK, SubType.NACK), 13)
    assert done is txn2 and txn2.granted is False
    assert bridge.stats["lock_nacks"] == 1


def test_unlock_protocol():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.UNLOCK, 0x40)
    bridge.start(txn, 0)
    drain_output(bridge)
    done = bridge.on_reply(reply(PacketType.UNLOCK, SubType.ACK), 2)
    assert done is txn


def test_start_while_busy_rejected():
    bridge = make_bridge()
    bridge.start(MemTransaction(PacketType.SINGLE_READ, 0), 0)
    with pytest.raises(ProtocolError):
        bridge.start(MemTransaction(PacketType.SINGLE_READ, 4), 1)


def test_reply_with_no_transaction_rejected():
    bridge = make_bridge()
    with pytest.raises(ProtocolError):
        bridge.on_reply(reply(PacketType.SINGLE_READ, SubType.DATA), 0)


def test_mismatched_reply_type_rejected():
    bridge = make_bridge()
    bridge.start(MemTransaction(PacketType.SINGLE_READ, 0), 0)
    drain_output(bridge)
    with pytest.raises(ProtocolError):
        bridge.on_reply(reply(PacketType.SINGLE_WRITE, SubType.ACK), 1)


def test_data_before_request_sent_rejected():
    bridge = make_bridge()
    bridge.start(MemTransaction(PacketType.SINGLE_READ, 0), 0)
    # Request flit not yet accepted by the arbiter: still in SEND_REQ.
    with pytest.raises(ProtocolError):
        bridge.on_reply(reply(PacketType.SINGLE_READ, SubType.DATA), 1)


def test_output_sent_with_nothing_pending_rejected():
    bridge = make_bridge()
    with pytest.raises(ProtocolError):
        bridge.output_sent()


def test_latency_statistics_recorded():
    bridge = make_bridge()
    txn = MemTransaction(PacketType.SINGLE_READ, 0)
    bridge.start(txn, 100)
    drain_output(bridge)
    bridge.on_reply(reply(PacketType.SINGLE_READ, SubType.DATA), 140)
    assert bridge.latency.count == 1
    assert bridge.latency.max == 40
    assert bridge.stats["txn_single_read"] == 1
