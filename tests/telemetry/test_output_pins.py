"""Pinned observability outputs: the analyze report and the trace.

Both commands are deterministic (seeded faults, no wall-clock fields),
so their artifacts are the golden store's ``observability`` pins
(``tests/goldens.py``): a refactor of the instrumentation plumbing must
reproduce the ``analyze cg-tiny`` report byte for byte and the
``trace cg`` timeline as the same multiset of trace events (the
exporter's sort is by track, so ties may legitimately reorder): its
event count, the sha256 of the events serialized with sorted keys,
sorted and joined by newlines, and the overlap efficiency it prints.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from repro.cli import main
from tests.goldens import check


def run_cli(*args: str) -> tuple[str, str]:
    """Run one ``--out`` command: (what it wrote, what it printed)."""
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(io.StringIO()) as printed:
        out = Path(tmp) / "out.json"
        assert main([*args, "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8"), printed.getvalue()


def analyze_cg_tiny() -> str:
    return run_cli("analyze", "cg-tiny")[0]


def trace_cg() -> dict:
    written, printed = run_cli("trace", "cg")
    events = json.loads(written)["traceEvents"]
    canonical = sorted(json.dumps(event, sort_keys=True) for event in events)
    return {
        "events": len(canonical),
        "sha256": hashlib.sha256("\n".join(canonical).encode()).hexdigest(),
        "overlap_efficiency": re.search(
            r"overlap efficiency (\S+)", printed
        ).group(1),
    }


MEASURES = {"analyze_cg_tiny": analyze_cg_tiny, "trace_cg": trace_cg}
PIN_KEYS = tuple(MEASURES)


def measure_pins() -> dict:
    return {key: measure() for key, measure in MEASURES.items()}


def test_analyze_cg_tiny_report_is_byte_identical():
    check("observability", {"analyze_cg_tiny": analyze_cg_tiny()})


def test_trace_cg_event_multiset_is_pinned():
    check("observability", {"trace_cg": trace_cg()})
