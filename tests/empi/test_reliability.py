"""Retransmit-protocol edge cases, driven directly at the TIE level.

End-to-end recovery (drops/corruption/dead links healed under real
collectives) lives in ``tests/system/test_fault_recovery.py``; here the
reliable-mode :class:`~repro.pe.tie.TieInterface` is fed hand-built
tokens to pin the awkward corners: stale NACKs for already-retired
slots, corrupted NACKs naming never-sent slots, the retransmit-buffer
backpressure gate, duplicate suppression, and idempotent credit
probes.
"""

from __future__ import annotations

from repro.faults import FaultInjector, FaultPlan
from repro.noc.flit import Flit
from repro.noc.packet import PacketType, SubType
from repro.noc.topology import MeshTopology
from repro.pe.reliability import DEMAND_FACTOR, ReliabilityAgent
from repro.pe.tie import (
    CREDIT_PROBE_WORD,
    CREDIT_WORD,
    GATED,
    NACK_WORD,
    UNICAST,
    TieInterface,
)

PEER = 2


def reliable_tie(retx_slots: int = 16) -> TieInterface:
    tie = TieInterface(node_id=1)
    tie.reliable = True
    tie.retx_slots = retx_slots
    return tie


def token(word: int, src: int = PEER) -> Flit:
    return Flit(dst=1, src=src, ptype=PacketType.MESSAGE,
                subtype=int(SubType.MSG_REQUEST), seq=0, burst=1, data=word)


def drain_tx(tie: TieInterface, n: int) -> list[Flit]:
    """Emit up to ``n`` flits of the current send, as the node would."""
    emitted = []

    def take(flit: Flit) -> bool:
        emitted.append(flit)
        return True

    while tie.tx_busy and len(emitted) < n and tie.send(take) != GATED:
        pass
    return emitted


def drain_retx(tie: TieInterface) -> list[Flit]:
    """Send every owed unicast retransmission, as the node would."""
    emitted = []

    def take(flit: Flit) -> bool:
        emitted.append(flit)
        return True

    while tie.pending_retx:
        tie.send_retx(UNICAST, tie.pending_retx, tie.stats, take)
    return emitted


# -- NACK edge cases --------------------------------------------------------


def test_nack_for_already_retired_slot_is_dropped():
    # A stale NACK that crossed the credit repairing it in flight: the
    # slot sits behind the credited floor, so the retransmit buffer no
    # longer holds it — and must not be asked to.
    tie = reliable_tie()
    tie.begin_send(PEER, list(range(100, 108)))
    drain_tx(tie, 8)
    tie.accept(token(CREDIT_WORD | 8))      # peer credits all 8 slots
    assert not tie.windows[PEER].retx       # buffer fully retired
    tie.accept(token(NACK_WORD | 3))        # stale NACK for slot 3
    assert not tie.pending_retx
    assert tie.stats.as_dict()["nacks_retired"] == 1


def test_corrupted_nack_for_unsent_slot_is_ignored():
    # A corrupted NACK token can name any slot; one beyond everything
    # ever emitted must be ignored (the receiver keeps NACKing with
    # backoff until a well-formed one lands).
    tie = reliable_tie()
    tie.begin_send(PEER, [7, 8, 9])
    drain_tx(tie, 3)
    tie.accept(token(NACK_WORD | 12))       # never sent slot 12
    assert not tie.pending_retx
    assert tie.stats.as_dict()["nacks_ignored"] == 1
    # So is a NACK from a peer we never sent anything to.
    tie.accept(token(NACK_WORD | 0, src=5))
    assert not tie.pending_retx
    assert tie.stats.as_dict()["nacks_ignored"] == 2


def test_valid_nack_queues_one_retransmission():
    tie = reliable_tie()
    words = [50, 51, 52, 53]
    tie.begin_send(PEER, words)
    drain_tx(tie, 4)
    tie.accept(token(NACK_WORD | 2))
    tie.accept(token(NACK_WORD | 2))        # duplicate NACK: no double-queue
    assert len(tie.pending_retx) == 1
    (flit,) = drain_retx(tie)
    assert flit.subtype == int(SubType.MSG_RETX)
    assert flit.seq == 2 and flit.data == 52 and flit.dst == PEER
    assert not tie.pending_retx
    assert tie.stats.as_dict()["retx_sent"] == 1
    # Once drained, the same slot may be NACKed (and served) again.
    tie.accept(token(NACK_WORD | 2))
    assert len(tie.pending_retx) == 1


def test_retx_buffer_full_backpressures_the_sender():
    # retx_slots=4 narrows the TX window below the credit limit: the
    # sender stalls with every emitted-but-unretired slot replayable,
    # and resumes exactly as credits retire slots.
    tie = reliable_tie(retx_slots=4)
    tie.begin_send(PEER, list(range(10)))
    assert len(drain_tx(tie, 10)) == 4      # slots 0-3, then the gate
    assert tie.send(lambda flit: True) == GATED
    assert len(tie.windows[PEER].retx) == 4
    assert tie.stats.as_dict()["credit_stall_cycles"] >= 1
    tie.accept(token(CREDIT_WORD | 2))      # peer retires slots 0-1
    assert len(drain_tx(tie, 10)) == 2      # window slides by exactly 2
    assert set(tie.windows[PEER].retx) == {2, 3, 4, 5}


def test_duplicate_retransmission_is_dropped_at_the_stream():
    # A retransmit racing its delayed original: the second copy of the
    # slot is detected by the wide stream and discarded, not aliased.
    tie = reliable_tie()

    def data(seq):
        return Flit(dst=1, src=PEER, ptype=PacketType.MESSAGE,
                    subtype=int(SubType.MSG_DATA), seq=seq, burst=1,
                    data=1000 + seq)

    tie.accept(data(0))
    tie.accept(data(0))
    assert tie.stats.as_dict()["duplicate_flits_dropped"] == 1
    stream = tie.rx[UNICAST][PEER]
    assert stream.take(1) == [1000]


def test_stale_credit_is_idempotent():
    tie = reliable_tie()
    tie.begin_send(PEER, list(range(16)))
    drain_tx(tie, 16)
    tie.accept(token(CREDIT_WORD | 8))
    tie.accept(token(CREDIT_WORD | 4))      # reordered stale token: no-op
    assert tie.windows[PEER].credited[PEER] == 8
    tie.accept(token(CREDIT_WORD | 16))
    assert tie.windows[PEER].credited[PEER] == 16
    assert not tie.windows[PEER].retx


def test_credit_probe_reissues_current_value():
    # The receive side answers a probe with its current credited slot —
    # the idempotent repair for a lost credit token.
    tie = reliable_tie()
    for seq in range(8):
        tie.accept(Flit(dst=1, src=PEER, ptype=PacketType.MESSAGE,
                        subtype=int(SubType.MSG_DATA), seq=seq, burst=1,
                        data=seq))
    # One windowed credit (8 contiguous slots) is owed; drop it.
    assert not tie.pending_credits.empty
    tie.pending_credits.pop()
    tie.accept(token(CREDIT_PROBE_WORD))
    dst, word = tie.pending_credits.peek()
    assert dst == PEER
    assert word == (CREDIT_WORD | 8)
    assert tie.stats.as_dict()["credit_probes_received"] == 1


# -- the reliability agent's timers -----------------------------------------


def agent_for(tie: TieInterface, **plan_kwargs) -> ReliabilityAgent:
    injector = FaultInjector(FaultPlan(**plan_kwargs), MeshTopology(3, 3))
    tie.faults = injector
    return ReliabilityAgent(tie, injector)


def test_gap_triggers_nack_after_timeout_with_backoff():
    tie = reliable_tie()
    agent = agent_for(tie, nack_timeout=10, nack_backoff=2, max_retries=3)
    # Slot 1 arrives, slot 0 missing: a gap.
    tie.accept(Flit(dst=1, src=PEER, ptype=PacketType.MESSAGE,
                    subtype=int(SubType.MSG_DATA), seq=1, burst=1, data=5))
    agent.tick(0)           # arms the timer
    assert agent.wants_poll
    agent.tick(9)
    assert tie.pending_credits.empty        # not expired yet
    agent.tick(10)          # first NACK
    dst, word = tie.pending_credits.pop()
    assert dst == PEER and word == (NACK_WORD | 0)
    agent.tick(29)
    assert tie.pending_credits.empty        # backoff doubled the horizon
    agent.tick(30)          # second NACK
    assert tie.pending_credits.pop()[1] == (NACK_WORD | 0)
    assert agent.injector.counts.as_dict()["nacks_issued"] == 2


def test_retries_exhausted_lands_on_gave_up_without_raising():
    tie = reliable_tie()
    agent = agent_for(tie, nack_timeout=4, nack_backoff=1, max_retries=2)
    tie.accept(Flit(dst=1, src=PEER, ptype=PacketType.MESSAGE,
                    subtype=int(SubType.MSG_DATA), seq=1, burst=1, data=5))
    for cycle in range(0, 100, 4):
        agent.tick(cycle)
        while not tie.pending_credits.empty:
            tie.pending_credits.pop()
    assert agent.injector.counts.as_dict()["nacks_issued"] == 2
    assert len(agent.injector.gave_up) == 1
    assert "pe[1]" in agent.injector.gave_up[0]


def test_demand_only_starvation_waits_longer():
    # Tail loss: nothing buffered, but a consumer asked for words.  The
    # NACK must come — at DEMAND_FACTOR times the gap horizon, since an
    # idle sender looks identical.
    tie = reliable_tie()
    agent = agent_for(tie, nack_timeout=10)
    stream = tie.stream_from(PEER)
    assert not stream.available(2)          # records demand
    agent.tick(0)
    assert agent.wants_poll
    agent.tick(10 * DEMAND_FACTOR - 1)
    assert tie.pending_credits.empty
    agent.tick(10 * DEMAND_FACTOR)
    assert tie.pending_credits.pop()[1] == (NACK_WORD | 0)


def test_credit_stall_probes_the_gating_peer():
    tie = reliable_tie()
    agent = agent_for(tie, nack_timeout=10)
    tie.begin_send(PEER, list(range(20)))
    drain_tx(tie, 20)                       # stalls at the credit limit
    assert tie.send(lambda flit: True) == GATED
    agent.tick(0)
    agent.tick(10)
    dst, word = tie.pending_credits.pop()
    assert dst == PEER and word == CREDIT_PROBE_WORD
    assert agent.injector.counts.as_dict()["probes_issued"] == 1
    # Progress (a credit advancing the floor) re-arms instead of firing.
    tie.accept(token(CREDIT_WORD | 8))
    agent.tick(11)
    agent.tick(21)
    assert agent.injector.counts.as_dict()["probes_issued"] == 1
