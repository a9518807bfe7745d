"""Per-tile reliability agent: NACK/retransmit timers and credit probes.

Only instantiated when a fault plan is active (``SystemConfig.faults``),
so the fault-free model carries zero overhead.  The agent is the
*initiative* half of the reliable-delivery protocol in
:mod:`repro.pe.tie`: the TIE reacts to tokens (serving NACKs from its
retransmit buffer, answering probes with its current credit value), and
the agent decides *when* those tokens are owed in the first place.

Detection is timer-driven, never arrival-driven: a receive stream that
has not advanced past a missing slot for ``nack_timeout`` cycles gets a
NACK naming that slot, re-armed with exponential backoff (a NACK or its
retransmission may itself be lost).  Two starvation signals arm the
timer:

* a **gap** — words are buffered beyond a missing slot, so something in
  the middle was dropped;
* **demand** — a consumer asked the stream for words that never arrived
  (:attr:`ReceiveStream.wanted`), which catches tail loss where nothing
  later arrives to expose the hole.  Demand alone waits four times
  longer, because "the sender has not sent yet" looks identical to "the
  tail was dropped" and spurious NACKs are pure overhead.

The TX side is watched symmetrically: whichever message is streaming out
of a send window (the TIE's, or the DMA engine's for the group) and is
credit-stalled for the same horizon probes each member the gate is
waiting for (credit tokens carry absolute slots, so the re-issued value
is idempotent — this repairs a *lost credit* the way NACKs repair lost
data).  Both watches run once per channel; nothing else tells the
channels apart.

Between expirations the agent is idle in a way its owner can rely on: a
tick that finds every stream and window as the previous tick left them
re-arms nothing, and cannot fire before :meth:`ReliabilityAgent.next_deadline`.
The owning node skips such ticks (its *quiet horizon*, see
:mod:`repro.pe.processor`); any step that lets the core or the TX phase
run after a tick is followed by a tick that does run.

After ``max_retries`` expirations without progress the agent records the
failure on the injector's ``gave_up`` list and stops; it never raises.
Deciding that a silent component is dead is the watchdog's job
(:mod:`repro.kernel.watchdog`), which quotes ``gave_up`` in its report.
"""

from __future__ import annotations

import typing

from repro.kernel.simulator import NEVER
from repro.pe.tie import (
    CHANNEL_BIT,
    CREDIT_PROBE_WORD,
    MCAST,
    NACK_WORD,
    SLOT_MASK,
    UNICAST,
    OutgoingMessage,
    ReceiveStream,
    TieInterface,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dma.engine import DmaTxEngine
    from repro.faults import FaultInjector

#: Demand-only starvation waits this many times longer than a gap before
#: NACKing (see module docstring).
DEMAND_FACTOR = 4

#: Per channel: timer-key tags and what a TX timer's token is called.
_RX_TAG = ("rx", "mrx")
_TX_TAG = ("tx", "mtx")
_PROBE = ("credit probe", "mcast credit probe")


class _Timer:
    """One armed starvation timer (per stream or per credit-gated peer)."""

    __slots__ = ("front", "deadline", "attempt", "dead")

    def __init__(self, front: int, deadline: int) -> None:
        self.front = front      # progress marker; any advance re-arms
        self.deadline = deadline
        self.attempt = 0
        self.dead = False       # retries exhausted; recorded on gave_up


class ReliabilityAgent:
    """Watches one tile's streams and issues NACK/probe tokens."""

    def __init__(
        self,
        tie: TieInterface,
        injector: "FaultInjector",
        dma: "DmaTxEngine | None" = None,
    ) -> None:
        self.tie = tie
        self.node_id = tie.node_id
        self.injector = injector
        self.dma = dma
        plan = injector.plan
        self.nack_timeout = plan.nack_timeout
        self.backoff = plan.nack_backoff
        self.max_retries = plan.max_retries
        #: Sleep horizon the owning node uses while any timer is armed:
        #: fine enough that a deadline is never overshot by more than
        #: half a timeout, coarse enough to stay off the hot path.
        self.poll_interval = max(8, plan.nack_timeout // 2)
        #: True after a tick that left at least one timer armed; the
        #: node then sleeps with a wakeup instead of indefinitely.
        self.wants_poll = False
        self._timers: dict[tuple, _Timer] = {}

    # -- per-cycle scan ------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Arm/advance all starvation timers; called early in node.step."""
        tie = self.tie
        live: set[tuple] = set()
        for channel, streams in enumerate(tie.rx):
            for src, stream in streams.items():
                # A stream with no gap and no unmet demand needs no timer.
                if stream.slots or stream.wanted > stream.lowest_missing:
                    self._check_stream(cycle, channel, src, stream, live)
        if tie.tx is not None:
            self._check_tx(cycle, UNICAST, tie.tx, live)
        if self.dma is not None and self.dma._active is not None:
            self._check_tx(cycle, MCAST, self.dma._active, live)
        timers = self._timers
        if len(live) != len(timers):
            for key in [k for k in timers if k not in live]:
                del timers[key]
        self.wants_poll = bool(timers)

    def next_deadline(self) -> int:
        """The first cycle at which a tick can act on its own: the
        smallest deadline of an armed timer that has not given up
        (``NEVER`` with none).  Until then a tick that finds the streams
        and windows as the previous tick left them changes nothing —
        what the owning node's quiet horizon rests on."""
        deadline = NEVER
        for timer in self._timers.values():
            if timer.deadline < deadline and not timer.dead:
                deadline = timer.deadline
        return deadline

    def _check_stream(
        self, cycle: int, channel: int, src: int, stream: ReceiveStream,
        live: set,
    ) -> None:
        gap = bool(stream.slots)
        key = (_RX_TAG[channel], src)
        live.add(key)
        self._expire(
            cycle, key, front=stream.lowest_missing, dst=src,
            token=NACK_WORD | (channel * CHANNEL_BIT)
            | (stream.lowest_missing & SLOT_MASK),
            horizon=self.nack_timeout if gap else
            self.nack_timeout * DEMAND_FACTOR,
            what="nack",
        )

    def _check_tx(
        self, cycle: int, channel: int, message: OutgoingMessage, live: set,
    ) -> None:
        slot, gate, _flit = message.entries[message.index]
        window = message.window
        for member in window.blocked_by(slot, gate):
            key = (_TX_TAG[channel], member)
            live.add(key)
            self._expire(
                cycle, key, front=window.credited.get(member, 0), dst=member,
                token=CREDIT_PROBE_WORD | (channel * CHANNEL_BIT),
                horizon=self.nack_timeout, what=_PROBE[channel],
            )

    def _expire(
        self, cycle: int, key: tuple, front: int, dst: int, token: int,
        horizon: int, what: str,
    ) -> None:
        timer = self._timers.get(key)
        if timer is None or timer.front != front:
            self._timers[key] = _Timer(front, cycle + horizon)
            return
        if timer.dead or cycle < timer.deadline:
            return
        if timer.attempt >= self.max_retries:
            timer.dead = True
            self.injector.gave_up.append(
                f"pe[{self.node_id}] gave up on {what} to node {dst} "
                f"({key[0]} stream front slot {front}, "
                f"{timer.attempt} retries exhausted at cycle {cycle})"
            )
            return
        timer.attempt += 1
        timer.deadline = cycle + horizon * (self.backoff ** timer.attempt)
        self.tie.pending_credits.push((dst, token))
        self.injector.counts.inc(
            "nacks_issued" if what == "nack" else "probes_issued"
        )
