"""Validate a Chrome trace-event JSON file (the CI observability-smoke gate).

Checks the contract Perfetto and ``chrome://tracing`` rely on:

* the file parses and has a ``traceEvents`` list;
* every event carries the required ``ph``/``ts``/``pid``/``tid``/``name``
  keys (with sane types);
* timestamps are monotonically non-decreasing within each
  ``(pid, tid)`` track;
* complete events ("X") have a non-negative ``dur``.

Usage: ``python benchmarks/validate_trace.py trace.json``; also imported
by the telemetry tests, so the CI job and the test suite enforce the
same schema.
"""

from __future__ import annotations

import json
import sys

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


def validate_trace_events(events: list) -> dict:
    """Raise ``ValueError`` on any schema violation; return a summary."""
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    last_ts: dict[tuple, float] = {}
    phases: dict[str, int] = {}
    tracks = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"event {index} missing {key!r}: {event}")
        if not isinstance(event["name"], str):
            raise ValueError(f"event {index} name is not a string")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"event {index} ts is not numeric")
        ph = event["ph"]
        phases[ph] = phases.get(ph, 0) + 1
        if ph == "M":
            continue  # metadata sits at ts 0, outside track ordering
        track = (event["pid"], event["tid"])
        tracks.add(track)
        if event["ts"] < last_ts.get(track, 0):
            raise ValueError(
                f"event {index} breaks ts monotonicity on track {track}: "
                f"{event['ts']} after {last_ts[track]}"
            )
        last_ts[track] = event["ts"]
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {index} 'X' has bad dur: {dur!r}")
    return {
        "events": len(events),
        "tracks": len(tracks),
        "phases": phases,
    }


def validate_trace_file(path: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("top level must be an object with 'traceEvents'")
    return validate_trace_events(payload["traceEvents"])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_trace.py <trace.json>", file=sys.stderr)
        return 2
    summary = validate_trace_file(argv[0])
    phases = ", ".join(
        f"{ph}={count}" for ph, count in sorted(summary["phases"].items())
    )
    print(
        f"{argv[0]}: OK — {summary['events']} events on "
        f"{summary['tracks']} tracks ({phases})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
