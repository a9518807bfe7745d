"""Pinned observability outputs: the analyze report and the trace.

Both commands are deterministic (seeded faults, no wall-clock fields),
so their artifacts are pinned whole: a refactor of the instrumentation
plumbing must reproduce the ``analyze cg-tiny`` report byte for byte
and the ``trace cg`` timeline as the same multiset of trace events
(the exporter's sort is by track, so ties may legitimately reorder).
Regenerate only for an intentional change to what a run reports::

    PYTHONPATH=src python -m repro analyze cg-tiny \
        --out tests/telemetry/pins/analyze_cg_tiny.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cli import main

ANALYZE_PIN = Path(__file__).parent / "pins" / "analyze_cg_tiny.json"

#: ``trace cg``: event count, and the sha256 of the events serialized
#: with sorted keys, sorted, and joined by newlines.
TRACE_CG_EVENTS = 8505
TRACE_CG_SHA256 = (
    "b3c69c6f45677393e25759d8d82f77aa575b13ca7a05b7e8921c90a6362e8921"
)


def test_analyze_cg_tiny_report_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "cg-tiny", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ANALYZE_PIN.read_bytes()


def test_trace_cg_event_multiset_is_pinned(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "cg", "--out", str(out)]) == 0
    assert "overlap efficiency 0.9425" in capsys.readouterr().out
    events = json.loads(out.read_text())["traceEvents"]
    canonical = sorted(json.dumps(event, sort_keys=True) for event in events)
    assert len(canonical) == TRACE_CG_EVENTS
    digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    assert digest == TRACE_CG_SHA256
