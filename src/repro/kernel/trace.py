"""The event log: one typed record, one sink, for everything a run tells.

Every instrumented site in the machine — a program's ``note`` op, the
eMPI runtime's request/collective brackets, a NoC ejection, a DMA
descriptor changing state, an injected fault — calls
:meth:`EventLog.emit` with the same five fields,
``Event(cycle, tile, kind, key, payload)``.  ``tile`` is always the NoC
node id (rank-keyed reports translate through the system's
``rank_to_node``), ``kind`` one of the constants below, ``key`` what a
consumer pairs or groups on, ``payload`` whatever else the site knows.
Consumers are plain folds over the stream and never parse a string.

Retention is one rule.  *Program* events (everything a ``note`` op
emits) are kept for the whole run: there are a handful per collective,
and applications read their iteration marks back from them, so evicting
one would silently break a result.  *Hardware* events (per flit, per
descriptor) and *fault* events can number in the millions, so they
share one tail ring of :data:`RING_LIMIT` entries: the newest evicts
the oldest and ``dropped`` counts the evictions.  Tail, not head,
because hang and timeout reports quote the last events before the
machine stopped.  Hardware events are recorded only when the system
asks (``SystemConfig.trace`` or telemetry): the emitting component is
handed the log or ``None``, so the off path is one is-it-None test.

To add an event kind: (1) add its constant here, and to
:data:`RING_KINDS` if it fires per flit or per descriptor; (2) call
``emit`` at the site, with the node id as ``tile``; (3) if a report
should show it, add an arm to the fold that owns the report
(:class:`repro.empi.requests.OverlapFold`,
:func:`repro.telemetry.chrome_trace.log_events`,
:func:`repro.telemetry.attribution.extract_ops`) — every fold ignores
kinds it does not know, so step 3 is optional.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

# -- program-order kinds (emitted by ``note`` ops; never evicted) ----------------

#: A user mark, ``ctx.note(label)``: ``key`` is the label.
MARK = "mark"
#: A non-blocking request's in-flight window: ``key`` is its label.
REQUEST_POST = "req+"
REQUEST_DONE = "req-"
#: A compute region offered for hiding communication (``overlap()``).
OVERLAP_ENTER = "ov+"
OVERLAP_EXIT = "ov-"
#: A blocking collective phase: ``key`` names it (``"allreduce[ring]"``).
PHASE_ENTER = "phase+"
PHASE_EXIT = "phase-"
#: Critical-path attribution: one rank's participation in collective
#: occurrence ``key`` (``"allreduce#3"``), and each completed hop inside
#: it, ``payload = ("snd" | "rcv", peer rank or "*")``.
CP_ENTER = "cp+"
CP_EXIT = "cp-"
CP_HOP = "cph"

# -- ring kinds (hardware and faults; the newest RING_LIMIT are kept) ------------

#: A flit left the fabric at ``tile``: ``key`` is the flit uid,
#: ``payload = (packet type name, latency)``.
EJECT = "eject"
#: A DMA descriptor's lifecycle: ``key`` is its per-engine uid; the post
#: carries the descriptor's display name as ``payload``.
DMA_POST = "dma+"
DMA_ACTIVATE = "dma!"
DMA_RETIRE = "dma-"
#: An injected or detected fault: ``key`` is the fault name
#: (``"dropped"``, ``"link_killed"``, ...), ``payload`` its details.
FAULT = "fault"

RING_KINDS = frozenset({EJECT, DMA_POST, DMA_ACTIVATE, DMA_RETIRE, FAULT})

#: How many hardware + fault events are kept (the newest ones).
RING_LIMIT = 262_144


class Event(NamedTuple):
    """One record of the run's event stream."""

    cycle: int
    tile: int
    kind: str
    key: object
    payload: object


class EventLog:
    """The one sink: program events in a list, the rest in a tail ring."""

    def __init__(self) -> None:
        #: Program-order events, complete, in emission (= cycle) order.
        self.program: list[Event] = []
        #: The newest hardware and fault events, in emission order.
        self.ring: deque[Event] = deque(maxlen=RING_LIMIT)
        #: Ring events evicted to make room.
        self.dropped = 0

    def emit(
        self,
        cycle: int,
        tile: int,
        kind: str,
        key: object = None,
        payload: object = None,
    ) -> None:
        event = Event(cycle, tile, kind, key, payload)
        if kind in RING_KINDS:
            ring = self.ring
            if len(ring) == ring.maxlen:
                self.dropped += 1
            ring.append(event)
        else:
            self.program.append(event)

    def __iter__(self) -> Iterator[Event]:
        """Every retained event: program order first, then the ring."""
        return chain(self.program, self.ring)

    def of_kind(self, *kinds: str) -> list[Event]:
        return [event for event in self if event.kind in kinds]

    def marks(self, tile: int) -> dict[object, int]:
        """``{label: cycle}`` of the user marks one tile's program made
        (a repeated label keeps its last cycle)."""
        return {
            event.key: event.cycle
            for event in self.program
            if event.kind == MARK and event.tile == tile
        }
