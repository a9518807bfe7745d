"""TIE interface: sequence numbering, reassembly, double-buffer limits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.noc.flit import MULTICAST_DST, Flit
from repro.noc.packet import PacketType, SubType
from repro.pe.tie import (
    FINISHED,
    GATED,
    MAX_SPAN,
    MCAST,
    REFUSED,
    SENT,
    SEQ_WINDOW,
    ReceiveStream,
    TieInterface,
)


def data_flit(src: int, seq: int, word: int) -> Flit:
    return Flit(dst=0, src=src, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_DATA), seq=seq, data=word)


def request_flit(src: int, word: int) -> Flit:
    return Flit(dst=0, src=src, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_REQUEST), data=word)


# -- ReceiveStream ----------------------------------------------------------


def test_stream_in_order():
    stream = ReceiveStream()
    for index in range(5):
        stream.insert(index, 100 + index)
    assert stream.available(5)
    assert stream.take(5) == [100, 101, 102, 103, 104]


def test_stream_out_of_order_within_window():
    stream = ReceiveStream()
    stream.insert(2, 102)
    stream.insert(0, 100)
    assert not stream.available(2)
    stream.insert(1, 101)
    assert stream.available(3)
    assert stream.take(3) == [100, 101, 102]


def test_stream_sequence_wraps_across_windows():
    stream = ReceiveStream()
    for slot in range(40):  # 2.5 windows
        stream.insert(slot % SEQ_WINDOW, slot)
    assert stream.take(40) == list(range(40))


def test_stream_next_window_same_seq():
    stream = ReceiveStream()
    stream.insert(0, 0)       # slot 0
    stream.insert(1, 1)       # slot 1
    stream.insert(0, 16)      # seq 0 again -> slot 16 (next window)
    assert stream.take(2) == [0, 1]
    # slot 16 waits for 2..15
    assert not stream.available(1)


def test_stream_double_buffer_overrun_detected():
    stream = ReceiveStream()
    # Three seq-0 flits with no progress in between: slots 0 and 16 fill
    # the double buffer; the third would need a *third* window.
    stream.insert(0, 0)
    stream.insert(0, 16)
    with pytest.raises(ProtocolError):
        stream.insert(0, 32)


def test_stream_take_more_than_available_rejected():
    stream = ReceiveStream()
    stream.insert(0, 5)
    with pytest.raises(ProtocolError):
        stream.take(2)


def test_stream_bad_seq_rejected():
    stream = ReceiveStream()
    with pytest.raises(ProtocolError):
        stream.insert(16, 0)


def test_stream_pending_words():
    stream = ReceiveStream()
    stream.insert(0, 1)
    stream.insert(1, 2)
    assert stream.pending_words == 2
    stream.take(1)
    assert stream.pending_words == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_stream_reorder_property(data):
    """Any arrival order inside the hardware envelope reassembles correctly.

    The envelope the double buffer guarantees: two flits carrying the same
    sequence number (16 slots apart) can never overtake each other — the
    sender emits one flit per cycle, so a >= 16-cycle displacement through
    the deflection network is outside the design envelope.  Within that
    constraint, any interleaving must reassemble exactly.
    """
    total = data.draw(st.integers(1, 48))
    remaining = set(range(total))
    stream = ReceiveStream()
    while remaining:
        # Two live frames at most: an arrival must stay within two
        # 16-slot frames of the oldest outstanding slot.
        frame_base = (min(remaining) // SEQ_WINDOW) * SEQ_WINDOW
        candidates = sorted(
            slot for slot in remaining
            if slot - SEQ_WINDOW not in remaining
            and slot < frame_base + 2 * SEQ_WINDOW
        )
        slot = data.draw(st.sampled_from(candidates))
        remaining.remove(slot)
        stream.insert(slot % SEQ_WINDOW, 1000 + slot)
    assert stream.take(total) == [1000 + i for i in range(total)]


# -- TieInterface -----------------------------------------------------------


def test_accept_demuxes_request_and_data():
    tie = TieInterface(node_id=0)
    tie.accept(request_flit(src=2, word=0xAB))
    tie.accept(data_flit(src=2, seq=0, word=7))
    assert tie.requests.pop() == (2, 0xAB)
    assert tie.stream_from(2).take(1) == [7]


def test_accept_rejects_non_message():
    tie = TieInterface(node_id=0)
    with pytest.raises(ProtocolError):
        tie.accept(Flit(dst=0, src=1, ptype=PacketType.SINGLE_READ))


def test_streams_keyed_by_source():
    tie = TieInterface(node_id=0)
    tie.accept(data_flit(src=1, seq=0, word=10))
    tie.accept(data_flit(src=2, seq=0, word=20))
    assert tie.stream_from(1).take(1) == [10]
    assert tie.stream_from(2).take(1) == [20]


def grant_credit(tie: TieInterface, src: int) -> None:
    """Simulate a peer's credit token arriving."""
    from repro.pe.tie import CREDIT_WORD

    tie.accept(Flit(dst=tie.node_id, src=src, ptype=PacketType.MESSAGE,
                    subtype=int(SubType.MSG_REQUEST), data=CREDIT_WORD))


def drain(tie: TieInterface) -> list[Flit]:
    """Stream the data message into an arbiter that takes every flit,
    until it finished or the credit gate stops it; the flits offered."""
    offered: list[Flit] = []

    def take(flit: Flit) -> bool:
        offered.append(flit)
        return True

    while tie.tx_busy and tie.send(take) != GATED:
        pass
    return offered


def test_begin_send_generates_wrapping_sequence_numbers():
    tie = TieInterface(node_id=0)
    tie.begin_send(3, list(range(20)))
    flits = drain(tie)
    while tie.tx_busy:  # stalled on flow control: credit the sender
        grant_credit(tie, src=3)
        flits += drain(tie)
    assert [flit.seq for flit in flits] == [i % SEQ_WINDOW for i in range(20)]


def test_credit_gate_limits_inflight_slots():
    from repro.pe.tie import CREDIT_LIMIT, CREDIT_WINDOW

    tie = TieInterface(node_id=0)
    tie.begin_send(3, list(range(CREDIT_LIMIT + 4)))
    # Stalled exactly at the window limit.
    assert len(drain(tie)) == CREDIT_LIMIT
    assert tie.tx_busy
    grant_credit(tie, src=3)
    # The message's remaining flits, within the credit.
    assert len(drain(tie)) == 4
    assert not tie.tx_busy
    assert CREDIT_WINDOW >= 4  # the credit covered them


def test_receiver_emits_credits_per_window():
    from repro.pe.tie import CREDIT_WINDOW, CREDIT_WORD

    tie = TieInterface(node_id=1)
    for slot in range(2 * CREDIT_WINDOW):
        tie.accept(data_flit(src=4, seq=slot % SEQ_WINDOW, word=slot))
    assert len(tie.pending_credits) == 2
    flit = tie.credit_flit()
    assert flit is not None
    assert flit.dst == 4
    assert flit.data == CREDIT_WORD
    tie.credit_sent()
    assert len(tie.pending_credits) == 1


def test_credits_do_not_enter_request_queue():
    tie = TieInterface(node_id=0)
    grant_credit(tie, src=2)
    assert tie.requests.empty
    assert tie.stats["credits_received"] == 1


def test_send_slots_continue_across_messages():
    tie = TieInterface(node_id=0)
    tie.begin_send(3, [1, 2, 3])
    drain(tie)
    tie.begin_send(3, [4, 5])
    assert drain(tie)[0].seq == 3  # continues the per-dst slot counter


def test_burst_field_groups_logic_packets():
    tie = TieInterface(node_id=0)
    tie.begin_send(1, list(range(6)))  # packets of 4 + 2
    assert [flit.burst for flit in drain(tie)] == [4, 4, 4, 4, 2, 2]


def test_concurrent_send_rejected():
    tie = TieInterface(node_id=0)
    tie.begin_send(1, [1])
    with pytest.raises(ProtocolError):
        tie.begin_send(2, [2])


def test_empty_send_rejected():
    tie = TieInterface(node_id=0)
    with pytest.raises(ProtocolError):
        tie.begin_send(1, [])


def test_send_reports_each_flit_and_finishes_the_message():
    tie = TieInterface(node_id=0)
    tie.begin_send(1, [1, 2])
    assert tie.send(lambda flit: False) == REFUSED  # the arbiter is full
    assert tie.send(lambda flit: True) == SENT
    assert tie.tx_busy
    assert tie.send(lambda flit: True) == FINISHED
    assert not tie.tx_busy
    assert tie.stats["data_flits_sent"] == 2


def test_request_flit_shape():
    tie = TieInterface(node_id=5)
    flit = tie.make_request_flit(2, 0x123)
    assert flit.subtype == int(SubType.MSG_REQUEST)
    assert flit.src == 5
    assert flit.dst == 2
    assert flit.data == 0x123


def test_max_span_is_two_windows():
    assert MAX_SPAN == 2 * SEQ_WINDOW


def test_per_flit_counters_batch_until_read():
    """The hot per-flit counters live in plain ints between reads, and
    every read of the CounterSet folds them in exactly (the core's and
    the fabric's batching pattern)."""
    tie = TieInterface(node_id=0)
    tie.begin_send(1, [1, 2, 3])
    drain(tie)
    for seq in range(4):
        tie.accept(data_flit(src=2, seq=seq, word=seq))
    assert (tie._n_data_flits_sent, tie._n_flits_received) == (3, 4)
    assert tie.stats["data_flits_sent"] == 3
    assert tie.stats.get("data_flits_received") == 4
    assert (tie._n_data_flits_sent, tie._n_flits_received) == (0, 0)
    # A second read must not double-count.
    assert tie.stats.as_dict()["data_flits_sent"] == 3


def test_credit_stall_cycles_batch_until_read():
    from repro.pe.tie import CREDIT_LIMIT

    tie = TieInterface(node_id=0)
    tie.begin_send(1, list(range(CREDIT_LIMIT + 4)))
    assert len(drain(tie)) == CREDIT_LIMIT  # stalled at the credit gate
    assert tie.send(lambda flit: True) == GATED  # one more stalled cycle
    assert tie.stats["credit_stall_cycles"] == 2


# -- multicast group sync (re-registration handshake) -----------------------


def test_stream_realign_fast_forwards_idle_stream():
    stream = ReceiveStream()
    stream.realign(4)  # sender's shared slot counter stands at 16k + 4
    assert stream.lowest_missing == 4
    assert stream.consumed == 4
    assert stream.credited_upto == 4
    # Arrivals continue in the shared sequence space at that phase.
    stream.insert(4, 777)
    assert stream.available(1)
    assert stream.take(1) == [777]


def test_stream_realign_moves_forward_to_the_phase():
    stream = ReceiveStream()
    for seq in range(5):
        stream.insert(seq, seq)
    stream.take(5)
    stream.realign(2)  # next slot with phase 2 at or after the front
    assert stream.lowest_missing == 18
    stream.realign(2)  # a no-op when the front already has the phase
    assert stream.lowest_missing == 18


def test_stream_realign_refuses_unconsumed_data_and_bad_phase():
    stream = ReceiveStream()
    stream.insert(0, 1)
    with pytest.raises(ProtocolError):
        stream.realign(8)  # one unconsumed word would be lost
    stream.take(1)
    with pytest.raises(ProtocolError):
        stream.realign(SEQ_WINDOW)  # phase exceeds the 4-bit field
    stream.realign(1)  # fine: forward to the next phase-1 slot


def test_mcast_sync_token_realigns_and_acks():
    from repro.pe.tie import MCAST_SYNC_ACK_WORD, MCAST_SYNC_WORD

    tie = TieInterface(node_id=0)
    sync = Flit(dst=0, src=3, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_REQUEST),
                data=MCAST_SYNC_WORD | 12)
    tie.accept(sync)
    assert tie.requests.empty  # handshake stays out of the program queue
    assert tie.rx[MCAST][3].lowest_missing == 12
    # The ack rides the reverse path like a credit.
    assert list(tie.pending_credits._items) == [(3, MCAST_SYNC_ACK_WORD)]
    # Sender side: the ack lands in the acks set, not the credit counts.
    ack = Flit(dst=0, src=5, ptype=PacketType.MESSAGE,
               subtype=int(SubType.MSG_REQUEST), data=MCAST_SYNC_ACK_WORD)
    tie.accept(ack)
    assert tie.mcast_sync_acks == {5}
    assert 5 not in tie.window_for(MULTICAST_DST).credited
