"""The stream protocol's conservation law, stated once on the one class.

A :class:`~repro.pe.tie.SendWindow` streams messages to 1-4 receiving
TIEs through a drawn schedule of deliveries, reorderings, drops and
duplications of data flits and tokens, with NACKs and probes issued the
way the reliability agent would (a NACK while something sent is still
missing, a probe to a member the gate is waiting for).  Whatever the
schedule, on either channel and for every budget:

* every word arrives exactly once and in order;
* the slots in flight to a member and the words held for retransmission
  never exceed the member's ``budget``;
* at quiescence each member's credited floor on the sender equals the
  ``credited_upto`` of its receive stream, and nothing below the slowest
  floor is still buffered.

``tests.conftest.assert_streams_conserved`` is the end-of-run form of the
last point for a whole :class:`~repro.system.medea.MedeaSystem`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.flit import MULTICAST_DST
from repro.noc.packet import SubType
from repro.pe.tie import (
    CHANNEL_BIT,
    CREDIT_LIMIT,
    CREDIT_PROBE_WORD,
    FINISHED,
    GATED,
    MCAST,
    NACK_WORD,
    REFUSED,
    SLOT_MASK,
    UNICAST,
    OutgoingMessage,
    TieInterface,
)

SENDER = 0


def budget(window, member):
    """What the credit gate must enforce for ``member``, stated apart from
    it: the plan's window, capped by the retransmit buffer when reliable."""
    slots = window.credit_plan.get(member, CREDIT_LIMIT)
    return slots if window.retx_slots is None else min(slots, window.retx_slots)


class Harness:
    """One sender window, its receivers, and everything in flight."""

    def __init__(self, channel, plan, retx_slots, fallback):
        self.channel = channel
        self.members = tuple(plan)
        self.fallback = fallback
        self.sender = self._tie(SENDER, retx_slots, plan)
        self.receivers = {m: self._tie(m, retx_slots) for m in self.members}
        self.window = self.sender.window_for(
            MULTICAST_DST if channel else self.members[0]
        )
        self.window.members = self.members
        self.message: OutgoingMessage | None = None
        self.data: list = []       # (member, flit) in flight
        self.tokens: list = []     # (source member, word) in flight
        self.sent_upto = dict.fromkeys(self.members, 0)

    @staticmethod
    def _tie(node, retx_slots, plan=None):
        tie = TieInterface(node, credit_plan=plan)
        if retx_slots is not None:
            tie.reliable = True
            tie.retx_slots = retx_slots
        return tie

    # -- sender side --------------------------------------------------------

    def begin(self, words):
        sender, members = self.sender, self.members
        base = self.window.reserve(len(words))
        if not self.channel:
            entries = sender.data_flits(
                UNICAST, members[0], words, base, members
            )
        elif self.fallback:
            entries = [
                entry for member in members for entry in sender.data_flits(
                    MCAST, member, words, base, (member,)
                )
            ]
        else:
            mask = sum(1 << member for member in members)
            entries = sender.data_flits(
                MCAST, MULTICAST_DST, words, base, members, mask
            )
        self.message = OutgoingMessage(self.window, entries)

    def blocked(self):
        if self.message is None:
            return []
        slot, gate, _flit = self.message.entries[self.message.index]
        return self.window.blocked_by(slot, gate)

    def send(self):
        """Emit the next flit if the gate admits it; True if one left."""
        if self.sender.pending_retx:
            member, slot, word = self.sender.pending_retx.popleft()
            self.window.queued.discard((member, slot))
            self.data.append((member, self.sender.make_flit(
                self.channel, member, SubType.MSG_RETX, slot & SLOT_MASK, word
            )))
            return True
        message = self.message
        if message is None:
            return False
        slot, gate, flit = message.entries[message.index]
        blocked = self.blocked()
        sent = message.send(lambda offered: offered is flit)
        assert (sent == GATED) == bool(blocked)  # the gate, two ways
        if sent == GATED:
            return False
        assert sent != REFUSED
        for member in gate:
            self.data.append((member, flit))
            self.sent_upto[member] = slot + 1
        if sent == FINISHED:
            self.message = None
        return True

    def take_token(self, index):
        member, word = self.tokens.pop(index)
        self.sender.accept(self.receivers[member].make_flit(
            UNICAST, SENDER, SubType.MSG_REQUEST, 0, word
        ))
        # The engine's part: group NACKs are classified from its inbox.
        while self.sender.mcast_nacks:
            self.window.nack(
                *self.sender.mcast_nacks.popleft(), self.sender.pending_retx
            )

    # -- receiver side ------------------------------------------------------

    def _receive(self, member, flit):
        tie = self.receivers[member]
        tie.accept(flit)
        while not tie.pending_credits.empty:
            self.tokens.append((member, tie.pending_credits.pop()[1]))

    def deliver(self, index):
        self._receive(*self.data.pop(index))

    def stream(self, member):
        return self.receivers[member].stream_from(SENDER, self.channel)

    def nack(self, member):
        """The agent's NACK: only while something sent is still missing."""
        front = self.stream(member).lowest_missing
        if front < self.sent_upto[member]:
            self.tokens.append((member, NACK_WORD | self.channel * CHANNEL_BIT
                                | (front & SLOT_MASK)))

    def probe(self, member):
        self._receive(member, self.sender.make_flit(
            UNICAST, member, SubType.MSG_REQUEST, 0,
            CREDIT_PROBE_WORD | self.channel * CHANNEL_BIT,
        ))

    # -- the law ------------------------------------------------------------

    def check_bounds(self):
        window = self.window
        for member in self.members:
            in_flight = self.sent_upto[member] - window.credited.get(member, 0)
            assert in_flight <= budget(window, member)
        if window.retx_slots is None:
            assert not window.retx
        elif not self.fallback:
            # (Expanded per member, a descriptor's words stay buffered
            # until the *last* member's copy is credited, whatever the
            # budget — the per-member bound above is all that holds.)
            assert len(window.retx) <= window.retx_slots


@settings(max_examples=150, deadline=None)
@given(
    channel=st.sampled_from((UNICAST, MCAST)),
    budgets=st.lists(st.sampled_from((8, 12, 16, 24)), min_size=1, max_size=4),
    retx_slots=st.sampled_from((None, 8, 12, 16, 24)),
    fallback=st.booleans(),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    schedule=st.lists(st.integers(0, 2**20), max_size=400),
)
def test_conservation_under_any_schedule(channel, budgets, retx_slots,
                                         fallback, lengths, schedule):
    reliable = retx_slots is not None
    if not channel:
        budgets = budgets[:1]
    if not reliable:
        # The 4-bit wire format cannot track more than CREDIT_LIMIT slots.
        budgets = [min(budget, 16) for budget in budgets]
    plan = {member + 1: budget for member, budget in enumerate(budgets)}
    harness = Harness(channel, plan, retx_slots, fallback and bool(channel))
    messages = []
    for length in lengths:
        start = sum(map(len, messages))
        messages.append([1000 + start + i for i in range(length)])
    pending = list(messages)

    def step(draw):
        """One drawn action; losses and duplicates only when reliable."""
        action, pick = draw % 11, draw // 11
        if harness.message is None and pending:
            harness.begin(pending.pop(0))
        member = harness.members[pick % len(harness.members)]
        if action <= 3:
            harness.send()
        elif action <= 5 and harness.data:
            harness.deliver(pick % len(harness.data))       # any order
        elif action == 6 and harness.tokens:
            harness.take_token(pick % len(harness.tokens))
        elif action == 7 and reliable and harness.data:
            harness.data.pop(pick % len(harness.data))      # lost flit
        elif action == 8 and reliable and harness.tokens:
            harness.tokens.pop(pick % len(harness.tokens))  # lost token
        elif action == 9 and reliable and (harness.data or harness.tokens):
            queue = harness.data or harness.tokens          # duplicate
            queue.append(queue[pick % len(queue)])
        elif action == 10 and reliable:
            if member in harness.blocked():
                harness.probe(member)
            else:
                harness.nack(member)

    for draw in schedule:
        step(draw)
        harness.check_bounds()

    # Lossless from here on: deliver, and let the agent repair, until
    # every message is out and every word is in.
    total = sum(lengths)
    for _ in range(50 * total + 200):
        if harness.message is None and pending:
            harness.begin(pending.pop(0))
        while harness.data:
            harness.deliver(0)
        while harness.tokens:
            harness.take_token(0)
        if harness.send():
            harness.check_bounds()
            continue
        if harness.message is None and not pending and all(
            harness.stream(m).lowest_missing == total for m in harness.members
        ):
            break
        for member in harness.blocked():
            harness.probe(member)
        for member in harness.members:
            harness.nack(member)
    else:
        raise AssertionError("the stream never quiesced")
    if reliable:
        # A lost *final* credit is repaired only when the next message
        # stalls on it; one idempotent probe stands in for that stall.
        for member in harness.members:
            harness.probe(member)
        while harness.tokens:
            harness.take_token(0)

    window = harness.window
    expected = [word for message in messages for word in message]
    for member in harness.members:
        stream = harness.stream(member)
        assert stream.take(total) == expected       # once, and in order
        assert window.credited.get(member, 0) == stream.credited_upto
    floor = min(window.credited.get(m, 0) for m in harness.members)
    assert all(slot >= floor for slot in window.retx)
    assert not window.queued and not harness.sender.pending_retx
