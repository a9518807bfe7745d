"""Chrome trace-event export: the run as a Perfetto-openable timeline.

Renders everything a :class:`~repro.system.medea.MedeaSystem` records —
its event log (eMPI request lifecycles, overlap regions, collective
phases, user marks, DMA descriptor lifecycles, NoC ejections, injected
faults) and the sampled metric timeline — as standard trace-event JSON
(the ``{"traceEvents": [...]}`` format), one process per tile, openable
in ``ui.perfetto.dev`` or ``chrome://tracing``.

Conventions: 1 simulated cycle = 1 trace microsecond; workers map to
``pid = node id``; NoC/fault/metric tracks get reserved pids above any
real node.  Span pairing happens here at export time, in one pass over
the log: same-label requests complete in posting order (MPI ordered
matching), so a per-``(tile, label)`` FIFO recovers every span;
collective phases and overlap regions nest properly, so a per-tile
stack suffices; DMA descriptors pair on their uid.
"""

from __future__ import annotations

import json

from repro.kernel.trace import (
    DMA_ACTIVATE,
    DMA_POST,
    DMA_RETIRE,
    EJECT,
    FAULT,
    MARK,
    OVERLAP_ENTER,
    OVERLAP_EXIT,
    PHASE_ENTER,
    PHASE_EXIT,
    REQUEST_DONE,
    REQUEST_POST,
)

#: Reserved pids for non-tile tracks (real node ids stay small).
PID_NOC = 9000
PID_FAULTS = 9001
PID_METRICS = 9002

#: Per-tile thread (track) ids.
TID_REQUESTS = 0
TID_COLLECTIVES = 1
TID_OVERLAP = 2
TID_MARKS = 3
TID_DMA = 4

_TID_NAMES = {
    TID_REQUESTS: "requests",
    TID_COLLECTIVES: "collectives",
    TID_OVERLAP: "overlap",
    TID_MARKS: "marks",
    TID_DMA: "dma",
}


#: Span-opening kinds: kind -> (track, pair on the event key?, default
#: name).  Requests and descriptors pair on their key, oldest first
#: (ordered matching); phase and overlap brackets nest, so each track
#: keeps one stack whatever the key.
_OPENS = {
    REQUEST_POST: (TID_REQUESTS, True, "request"),
    PHASE_ENTER: (TID_COLLECTIVES, False, "collective"),
    OVERLAP_ENTER: (TID_OVERLAP, False, "overlap"),
    DMA_POST: (TID_DMA, True, "descriptor"),
}
#: Span-closing kinds -> the kind that opened the span.
_CLOSES = {
    REQUEST_DONE: REQUEST_POST,
    PHASE_EXIT: PHASE_ENTER,
    OVERLAP_EXIT: OVERLAP_ENTER,
    DMA_RETIRE: DMA_POST,
}


def log_events(system, end_cycle: int) -> list[dict]:
    """Spans and instants recovered from the system's event log."""
    events: list[dict] = []
    #: (tile, track, pairing key) -> open (name, start cycle) spans.
    open_spans: dict[tuple, list[tuple[str, int]]] = {}

    def instant(
        pid: int, tid: int, cycle: int, name: str, scope: str = "t", **extra
    ) -> None:
        events.append({
            "ph": "i", "pid": pid, "tid": tid, "ts": cycle, "name": name,
            "s": scope, **extra,
        })

    def span(tile: int, tid: int, start: int, end: int, name: str) -> None:
        events.append({
            "ph": "X", "pid": tile, "tid": tid, "ts": start,
            "dur": end - start, "name": name,
        })

    for cycle, tile, kind, key, payload in system.events:
        if kind in _OPENS:
            tid, keyed, default = _OPENS[kind]
            # A request or phase is named by its key, a descriptor by
            # its payload; the overlap bracket carries neither.
            name = (payload if kind == DMA_POST else key) or default
            open_spans.setdefault(
                (tile, tid, key if keyed else None), []
            ).append((name, cycle))
        elif kind in _CLOSES:
            tid, keyed, __ = _OPENS[_CLOSES[kind]]
            stack = open_spans.get((tile, tid, key if keyed else None))
            if stack:
                name, start = stack.pop(0 if keyed else -1)
                span(tile, tid, start, cycle, name)
        elif kind == DMA_ACTIVATE:
            instant(tile, TID_DMA, cycle, "activate")
        elif kind == EJECT:
            instant(PID_NOC, tile, cycle, f"eject {payload[0]}")
        elif kind == FAULT:
            instant(
                PID_FAULTS, 0, cycle, key, scope="p",
                args={"details": [str(item) for item in (tile, *payload)]},
            )
        else:
            # A user mark prints its label; any other program event (the
            # attribution brackets) prints its fields.
            parts = (key,) if kind == MARK else (kind, key, *(payload or ()))
            instant(tile, TID_MARKS, cycle, " ".join(map(str, parts)))
    # Anything still open at the end of the run renders to the last
    # cycle, so a hang is visible as a span running off the edge.
    for (tile, tid, __), stack in open_spans.items():
        for name, start in stack:
            span(tile, tid, start, end_cycle, f"{name} (unfinished)")
    return events


def _metric_events(system) -> list[dict]:
    registry = getattr(system, "telemetry", None)
    if registry is None:
        return []
    events = []
    for cycle, row in registry.samples:
        for name, delta in row.items():
            events.append({
                "ph": "C", "pid": PID_METRICS, "tid": 0, "ts": cycle,
                "name": name, "args": {"delta": delta},
            })
    return events


def _metadata(system) -> list[dict]:
    events = []

    def process(pid: int, name: str) -> None:
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": name},
        })

    for rank, node in sorted(system.rank_to_node.items()):
        process(node, f"tile{node} rank{rank}")
        for tid, tname in _TID_NAMES.items():
            events.append({
                "ph": "M", "pid": node, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": tname},
            })
    process(PID_NOC, "noc")
    process(PID_FAULTS, "faults")
    process(PID_METRICS, "metrics")
    return events


def chrome_trace_events(system) -> list[dict]:
    """Every track of a finished run, sorted by (pid, tid, ts)."""
    end_cycle = system.sim.cycle
    events = _metadata(system)
    body = log_events(system, end_cycle) + _metric_events(system)
    body.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return events + body


def write_chrome_trace(system, path: str) -> int:
    """Write the trace-event JSON file; returns the event count."""
    events = chrome_trace_events(system)
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            handle,
        )
    return len(events)
