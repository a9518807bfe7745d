"""Non-blocking communication: request handles and the progress engine.

MEDEA's hybrid model only pays off when communication hides behind
computation.  The blocking eMPI layer serializes the two: a ``send``
parks the core in WAIT_TX while the TIE streams, a ``recv`` parks it in
WAIT_MSG until the words arrive.  This module adds the MPI-style split:
an operation is *posted* (returning a :class:`Request`), the hardware
makes progress on its own (the TIE streams a posted TX descriptor one
flit per cycle; arriving flits land in the per-source receive streams),
and the program *completes* the operation later with ``wait``/``waitall``.

Because MEDEA programs are cooperative generators, the runtime part of
an operation is a **communication fragment**: a generator that yields
ordinary machine ops (status polls, descriptor writes, uncached loads)
and the :data:`RESCHEDULE` sentinel whenever it cannot progress until
some external event.  The :class:`ProgressEngine` owns all live
fragments and interleaves them — with each other, and with user compute
via :meth:`ProgressEngine.overlap` — giving each fragment one slice per
progress round, in posting order, which keeps every run bit-for-bit
deterministic.

Matching semantics (both backends):

* operations on the same peer complete in the order their fragments
  first run — posting order for plain ``isend``/``irecv``; programs must
  post matching operations in the same relative order on both ends
  (MPI's ordered-matching rule);
* at most one non-blocking *collective* is in flight per engine at a
  time (later ones queue behind it), and every rank must post the same
  collectives in the same order — MPI-3's rule for non-blocking
  collectives;
* blocking data-path operations must not be issued while any request is
  outstanding (the engine owns the TIE TX port and the receive-stream
  fronts); barriers ride the request-token segment and stay safe.

Overlap instrumentation rides the zero-cycle ``note`` op: the engine
brackets every request's in-flight window with ``REQUEST_POST`` /
``REQUEST_DONE`` events and every :meth:`overlap` region with
``OVERLAP_ENTER``/``OVERLAP_EXIT`` events
(:mod:`repro.kernel.trace`), and :class:`OverlapFold` reduces the event
log to per-rank *overlap efficiency* — the fraction of in-flight
communication cycles during which the core was simultaneously computing.
"""

from __future__ import annotations

import typing
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import EmpiTimeoutError, ProgramError
from repro.kernel.trace import (
    OVERLAP_ENTER,
    OVERLAP_EXIT,
    REQUEST_DONE,
    REQUEST_POST,
    EventLog,
)
from repro.pe.program import word_ops

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pe.program import Program, ProgramContext


class _Reschedule:
    """Singleton sentinel a fragment yields when it cannot progress."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "RESCHEDULE"


#: Yield this from a communication fragment to hand the slice back to the
#: progress engine (zero machine cycles; the fragment resumes next round).
RESCHEDULE = _Reschedule()


class Request:
    """Handle for one posted non-blocking operation."""

    __slots__ = ("label", "complete", "result", "_frag")

    def __init__(self, frag: "Program", label: str) -> None:
        self.label = label
        self.complete = False
        self.result: object = None
        self._frag = frag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"Request({self.label}, {state})"


class TimeoutGuard:
    """Round-counting timeout with exponential backoff for eMPI waits.

    Every progress round (and every spin iteration of the hw-collective
    descriptor loops) issues at least one machine op, so one tick is a
    cycle or more of simulated time — counting ticks against a cycle
    budget makes the budget a conservative *minimum* horizon without
    touching the clock (timing-neutral: a guard that never fires changes
    nothing).  When a horizon expires the guard backs off — the next
    horizon grows by ``budget << attempt`` — and after ``retries``
    expirations it raises :class:`~repro.errors.EmpiTimeoutError` naming
    the rank, the stuck operation, every outstanding request and the
    run's report (``MedeaSystem.report``).
    """

    __slots__ = ("rank", "budget", "retries", "what", "pending",
                 "report", "rounds", "attempt", "horizon")

    def __init__(
        self,
        rank: int,
        budget: int,
        retries: int,
        what: str,
        pending: Callable[[], list[str]] | None = None,
        report: Callable[[], str] | None = None,
    ) -> None:
        self.rank = rank
        self.budget = budget
        self.retries = retries
        self.what = what
        self.pending = pending
        self.report = report
        self.rounds = 0
        self.attempt = 0
        self.horizon = budget

    def tick(self) -> None:
        """Count one round; escalate (backoff, then raise) when due."""
        self.rounds += 1
        if self.rounds < self.horizon:
            return
        self.attempt += 1
        if self.attempt > self.retries:
            raise EmpiTimeoutError(self._message())
        self.horizon += self.budget << self.attempt

    def _message(self) -> str:
        parts = [
            f"rank {self.rank}: {self.what} timed out after "
            f"{self.rounds} progress rounds "
            f"({self.retries} exponential-backoff retries on a "
            f"{self.budget}-round budget)"
        ]
        labels = self.pending() if self.pending is not None else []
        if labels:
            parts.append(f"outstanding requests: {', '.join(labels)}")
        report = f"\n{self.report()}" if self.report is not None else ""
        return "; ".join(parts) + report


class ProgressEngine:
    """Cooperative scheduler for communication fragments (one per rank).

    Backend-agnostic: the eMPI runtime posts fragments built from TIE
    descriptor/poll ops, the shared-memory backend posts fragments built
    from uncached MPMMU accesses.  The engine only ever sees op tuples
    and :data:`RESCHEDULE`.
    """

    def __init__(self) -> None:
        self._active: list[Request] = []
        self._turns: dict[object, deque[object]] = {}
        # Timeout policy (0 budget = wait forever, the fault-free
        # default); set by configure_timeout.
        self.rank = -1
        self.timeout_rounds = 0
        self.timeout_retries = 3
        self.report: Callable[[], str] | None = None

    def configure_timeout(
        self,
        rank: int,
        budget: int,
        retries: int,
        report: Callable[[], str] | None = None,
    ) -> None:
        """Arm wait/progress timeouts (budget 0 keeps them off)."""
        self.rank = rank
        self.timeout_rounds = budget
        self.timeout_retries = retries
        self.report = report

    def guard(self, what: str) -> TimeoutGuard | None:
        """A fresh :class:`TimeoutGuard`, or None with timeouts off."""
        if self.timeout_rounds <= 0:
            return None
        return TimeoutGuard(
            self.rank, self.timeout_rounds, self.timeout_retries, what,
            pending=lambda: self.active_labels,
            report=self.report,
        )

    # -- resource turn-taking -------------------------------------------------

    def in_turn(self, key: object, body: "Program") -> "Program":
        """Run fragment ``body`` once it heads the ``key`` turn queue.

        The one turn rule: fragments contending for a resource (the TIE
        TX port, the front of a per-source receive stream, a mailbox,
        the collective arena) queue under its key in the order they
        first run and act only at the head, so concurrent requests can
        never steal each other's hardware.  A release cannot be out of
        order: the token is released here, only by the fragment that
        holds it, and it holds it only at the head.
        """
        queue = self._turns.get(key)
        if queue is None:
            queue = self._turns[key] = deque()
        token = object()
        queue.append(token)
        while queue[0] is not token:
            yield RESCHEDULE
        result = yield from body
        queue.popleft()
        return result

    # -- posting and progressing ----------------------------------------------

    @property
    def idle(self) -> bool:
        """True when no posted request is still in flight."""
        return not self._active

    @property
    def n_active(self) -> int:
        return len(self._active)

    @property
    def active_labels(self) -> list[str]:
        """Labels of the outstanding requests, posting order (diagnostics)."""
        return [request.label for request in self._active]

    def post(self, frag: "Program", label: str = "request") -> "Program":
        """Post a fragment; returns its :class:`Request` after one slice.

        The immediate first slice is what makes posting *eager*: an
        ``isend`` with an idle TX port starts the hardware right away and
        an ``irecv`` whose data already arrived completes on the spot.
        """
        request = Request(frag, label)
        self._active.append(request)
        yield ("note", REQUEST_POST, label, None)
        yield from self._slice(request)
        return request

    def _slice(self, request: Request) -> "Program":
        """Run one fragment until it reschedules or completes."""
        frag = request._frag
        send_value: object = None
        while True:
            try:
                item = frag.send(send_value)
            except StopIteration as stop:
                request.result = stop.value
                request.complete = True
                self._active.remove(request)
                yield ("note", REQUEST_DONE, request.label, None)
                return
            if item is RESCHEDULE:
                return
            send_value = yield item

    def progress(self) -> "Program":
        """One progress round: a slice for every live request, post order."""
        for request in list(self._active):
            if not request.complete:
                yield from self._slice(request)

    # -- completion -----------------------------------------------------------

    def wait(self, request: Request) -> "Program":
        """Progress until ``request`` completes; returns its result.

        Progressing always issues at least one machine op per round for
        whichever fragment holds each resource head (a status poll costs
        one cycle), so simulated time advances and the spin terminates
        when the awaited event arrives.  With a timeout configured
        (``configure_timeout``) a wait that never completes raises
        :class:`~repro.errors.EmpiTimeoutError` instead of spinning
        forever.
        """
        guard = self.guard(f"wait on {request.label}")
        while not request.complete:
            yield from self.progress()
            if guard is not None:
                guard.tick()
        return request.result

    def waitall(self, requests: list[Request]) -> "Program":
        results = []
        for request in requests:
            result = yield from self.wait(request)
            results.append(result)
        return results

    # -- compute-communication overlap ----------------------------------------

    def overlap(self, frag: "Program", poll_interval: int = 2) -> "Program":
        """Run a compute fragment, progressing requests as it goes.

        ``frag`` is an ordinary program generator (ops only, no
        RESCHEDULE).  After every ``poll_interval`` forwarded ops the
        engine takes one progress round (a double op is forwarded as its
        two word ops: a round may fall between them), so posted communication
        advances underneath the computation; the region is bracketed
        with overlap enter/exit events for :class:`OverlapFold`.  Returns
        the fragment's return value; outstanding requests are *not*
        waited for — complete them with ``wait``/``waitall``.
        """
        if poll_interval < 1:
            raise ProgramError("poll_interval must be >= 1")
        yield ("note", OVERLAP_ENTER, None, None)
        frag = _instructions(frag)
        ops_since_poll = 0
        send_value: object = None
        while True:
            try:
                item = frag.send(send_value)
            except StopIteration as stop:
                result = stop.value
                break
            send_value = yield item
            ops_since_poll += 1
            if ops_since_poll >= poll_interval and self._active:
                ops_since_poll = 0
                yield from self.progress()
        yield ("note", OVERLAP_EXIT, None, None)
        return result


def _instructions(frag: "Program") -> "Program":
    """``frag`` with each double op as the two word ops it stands for."""
    send_value = None
    while True:
        try:
            op = frag.send(send_value)
        except StopIteration as stop:
            return stop.value
        if op[0] in {"load_double", "store_double"}:
            send_value = yield from word_ops(op)
        else:
            send_value = yield op


class EngineCompletion:
    """The request surface of anything that owns an ``engine``.

    Every communicator (the eMPI endpoint and both collective backends)
    completes requests through its :class:`ProgressEngine`; this mixin
    is the one place that surface is spelled, handing back the engine's
    own generators, plus the guard blocking ops run first.
    """

    engine: ProgressEngine
    ctx: "ProgramContext"

    def _check_engine_idle(self, what: str, algorithm=None) -> None:
        """Refuse a blocking data-path op while requests are outstanding.

        It would race the engine's fragments for what they hold — the
        TIE TX port and receive-stream fronts on eMPI; the mailboxes,
        the slot arena and the barrier counter itself on shared memory
        — silently corrupting a stream or shared state.  (eMPI barriers
        ride the request-token segment and stay safe alongside
        requests.)  The message names the collective ``algorithm`` in
        use so mixed-algorithm apps can tell which call site raced.
        """
        if not self.engine.idle:
            labels = ", ".join(self.engine.active_labels)
            op = what if algorithm is None else f"{what}[{algorithm.value}]"
            raise ProgramError(
                f"rank {self.ctx.rank}: blocking {op} with "
                f"{self.engine.n_active} non-blocking request(s) "
                f"outstanding ({labels}); wait/waitall them first"
            )

    def wait(self, request: Request) -> "Program":
        """MPI_Wait: progress until ``request`` completes; its result."""
        return self.engine.wait(request)

    def waitall(self, requests: list[Request]) -> "Program":
        """MPI_Waitall: results in request order."""
        return self.engine.waitall(requests)

    def overlap(self, frag: "Program", poll_interval: int = 2) -> "Program":
        """Run a compute fragment while progressing outstanding requests."""
        return self.engine.overlap(frag, poll_interval)


# ---------------------------------------------------------------------------
# Overlap accounting (a fold over the event log)
# ---------------------------------------------------------------------------


@dataclass
class OverlapStats:
    """Per-rank overlap accounting distilled from a run's events."""

    #: Cycles with at least one posted request in flight.
    inflight_cycles: int = 0
    #: Cycles inside overlap() regions (compute offered for hiding).
    overlap_region_cycles: int = 0
    #: Cycles where both held at once — communication actually hidden.
    coexist_cycles: int = 0


#: Signed (in-flight depth, overlap depth) change per event kind.
_DEPTH_DELTAS = {
    REQUEST_POST: (1, 0),
    REQUEST_DONE: (-1, 0),
    OVERLAP_ENTER: (0, 1),
    OVERLAP_EXIT: (0, -1),
}


class OverlapFold:
    """Per-rank :class:`OverlapStats`, folded incrementally from the log.

    Each call to :meth:`advance` consumes the program events emitted
    since the last one (events arrive in cycle order per rank, so one
    forward sweep suffices); kinds other than the four depth-changing
    ones are skipped.  Run to the end of a finished run it is the batch
    reduction (:func:`overlap_stats`); polled by the metric sampler
    through :meth:`values` it makes overlap efficiency a per-interval
    curve whose end-to-end sum reproduces
    :func:`mean_overlap_efficiency` exactly.
    """

    def __init__(self, events: EventLog, rank_to_node: dict[int, int]):
        self._program = events.program
        self._index = 0
        self._rank_of = {node: rank for rank, node in rank_to_node.items()}
        self.per_rank = {rank: OverlapStats() for rank in rank_to_node}
        #: rank -> (in-flight depth, overlap depth, last event cycle).
        self._depth = {rank: (0, 0, 0) for rank in rank_to_node}

    def advance(self) -> dict[int, OverlapStats]:
        """Fold any new events; returns the running per-rank stats."""
        program = self._program
        depth = self._depth
        for index in range(self._index, len(program)):
            cycle, tile, kind, __, __ = program[index]
            deltas = _DEPTH_DELTAS.get(kind)
            if deltas is None or tile not in self._rank_of:
                continue
            rank = self._rank_of[tile]
            inflight, in_overlap, last_cycle = depth[rank]
            elapsed = cycle - last_cycle
            entry = self.per_rank[rank]
            if inflight > 0:
                entry.inflight_cycles += elapsed
            if in_overlap > 0:
                entry.overlap_region_cycles += elapsed
            if inflight > 0 and in_overlap > 0:
                entry.coexist_cycles += elapsed
            depth[rank] = (inflight + deltas[0], in_overlap + deltas[1], cycle)
        self._index = len(program)
        return self.per_rank

    def values(self) -> dict[str, int]:
        """The running totals as flat counters (a metric-registry
        provider): the machine-wide sums plus ``rank<r>.inflight_cycles``
        / ``rank<r>.coexist_cycles`` for every rank that has any."""
        counts = {
            "inflight_cycles": 0,
            "overlap_region_cycles": 0,
            "coexist_cycles": 0,
        }
        for rank, entry in self.advance().items():
            counts["inflight_cycles"] += entry.inflight_cycles
            counts["overlap_region_cycles"] += entry.overlap_region_cycles
            counts["coexist_cycles"] += entry.coexist_cycles
            if entry.inflight_cycles:
                counts[f"rank{rank}.inflight_cycles"] = entry.inflight_cycles
            if entry.coexist_cycles:
                counts[f"rank{rank}.coexist_cycles"] = entry.coexist_cycles
        return counts


def overlap_stats(
    events: EventLog, rank_to_node: dict[int, int]
) -> dict[int, OverlapStats]:
    """A finished run's per-rank :class:`OverlapStats`: the fold, run
    to the end of the log."""
    return OverlapFold(events, rank_to_node).advance()


def mean_overlap_efficiency(per_rank: dict[int, "OverlapStats"]) -> float:
    """Aggregate efficiency: total coexist over total in-flight cycles."""
    coexist = sum(entry.coexist_cycles for entry in per_rank.values())
    inflight = sum(entry.inflight_cycles for entry in per_rank.values())
    return coexist / inflight if inflight else 0.0
