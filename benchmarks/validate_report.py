"""Validate a ``medea analyze`` report JSON (the CI observability-smoke gate).

Checks the contract the attribution report promises:

* the schema tag matches ``medea.attribution/1``;
* every tile ledger carries every cycle class and sums to the run's
  total cycles **bit-exactly** (the conservation property the whole
  attribution story rests on), and the aggregate equals the tile sum;
* stall rows reference real ranks/classes with cycles within the total;
* every critical path's per-edge cycles telescope to its latency
  exactly, and its ``bound_hop`` (when present) names an edge on it.

Usage: ``python benchmarks/validate_report.py report.json``; also
imported by the telemetry tests, so the CI job and the test suite
enforce the same schema — the ``validate_trace.py`` pattern.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "medea.attribution/1"

LEDGER_CLASSES = (
    "compute", "wait_msg", "mem_stall", "credit_stall", "tx_stream",
    "barrier_spin", "lock_spin", "idle",
)

STALL_CLASSES = (
    "wait_msg", "mem_stall", "credit_stall", "tx_stream",
    "barrier_spin", "lock_spin",
)


def validate_report(report: dict) -> dict:
    """Raise ``ValueError`` on any schema violation; return a summary."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"schema mismatch: {report.get('schema')!r} != {SCHEMA!r}"
        )
    cycles = report.get("cycles")
    if not isinstance(cycles, int) or cycles < 0:
        raise ValueError(f"cycles must be a non-negative int, got {cycles!r}")

    ledger = report.get("ledger")
    if not isinstance(ledger, dict):
        raise ValueError("missing ledger object")
    tiles = ledger.get("tiles")
    if not isinstance(tiles, list) or not tiles:
        raise ValueError("ledger.tiles must be a non-empty list")
    ranks = set()
    for tile in tiles:
        rank = tile.get("rank")
        if not isinstance(rank, int) or rank in ranks:
            raise ValueError(f"bad or duplicate tile rank: {rank!r}")
        ranks.add(rank)
        for cls in LEDGER_CLASSES:
            if not isinstance(tile.get(cls), int) or tile[cls] < 0:
                raise ValueError(
                    f"tile {rank}: class {cls!r} missing or negative"
                )
        total = sum(tile[cls] for cls in LEDGER_CLASSES)
        if total != cycles or tile.get("total") != cycles:
            raise ValueError(
                f"tile {rank}: ledger sums to {total}, expected {cycles} "
                f"— conservation violated"
            )
    aggregate = ledger.get("aggregate")
    if not isinstance(aggregate, dict):
        raise ValueError("missing ledger.aggregate")
    for cls in LEDGER_CLASSES:
        expected = sum(tile[cls] for tile in tiles)
        if aggregate.get(cls) != expected:
            raise ValueError(
                f"aggregate[{cls}] = {aggregate.get(cls)} != tile sum "
                f"{expected}"
            )
    mpmmu = ledger.get("mpmmu")
    if not isinstance(mpmmu, dict) or "busy" not in mpmmu:
        raise ValueError("missing ledger.mpmmu occupancy")

    stalls = report.get("stalls")
    if not isinstance(stalls, list):
        raise ValueError("stalls must be a list")
    for row in stalls:
        if row.get("class") not in STALL_CLASSES:
            raise ValueError(f"unknown stall class {row.get('class')!r}")
        if row.get("rank") not in ranks:
            raise ValueError(f"stall row names unknown rank {row.get('rank')!r}")
        if not isinstance(row.get("cycles"), int) or not (
            0 <= row["cycles"] <= cycles
        ):
            raise ValueError(f"stall cycles out of range: {row.get('cycles')!r}")

    dispatch = report.get("dispatch")
    if not isinstance(dispatch, dict):
        raise ValueError("dispatch histogram must be an object")
    for opcode, count in dispatch.items():
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"dispatch[{opcode!r}] = {count!r} is not a count")

    paths = report.get("critical_paths")
    if not isinstance(paths, list):
        raise ValueError("critical_paths must be a list")
    for path in paths:
        op = path.get("op")
        latency = path.get("latency")
        edges = path.get("edges")
        if not isinstance(op, str) or not isinstance(edges, list):
            raise ValueError(f"malformed critical path: {path.get('op')!r}")
        if not isinstance(latency, int) or latency < 0:
            raise ValueError(f"{op}: bad latency {latency!r}")
        edge_sum = 0
        for edge in edges:
            if not isinstance(edge.get("cycles"), int):
                raise ValueError(f"{op}: edge without integer cycles")
            if edge.get("kind") not in ("local", "xfer", "skew"):
                raise ValueError(f"{op}: unknown edge kind {edge.get('kind')!r}")
            edge_sum += edge["cycles"]
        if edges and edge_sum != latency:
            raise ValueError(
                f"{op}: per-edge cycles sum to {edge_sum}, latency is "
                f"{latency} — the path does not telescope"
            )
        bound = path.get("bound_hop")
        if bound is not None:
            if not any(
                edge["from_rank"] == bound.get("from_rank")
                and edge["to_rank"] == bound.get("to_rank")
                and edge["cycles"] == bound.get("cycles")
                for edge in edges
            ):
                raise ValueError(f"{op}: bound_hop is not an edge of the path")

    return {
        "cycles": cycles,
        "tiles": len(tiles),
        "stall_rows": len(stalls),
        "opcodes": len(dispatch),
        "critical_paths": len(paths),
    }


def validate_report_file(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return validate_report(json.load(handle))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_report.py <report.json>", file=sys.stderr)
        return 2
    summary = validate_report_file(argv[0])
    print(
        f"{argv[0]}: OK — {summary['tiles']} tile ledgers conserve "
        f"{summary['cycles']} cycles, {summary['critical_paths']} critical "
        f"paths telescope, {summary['opcodes']} opcodes, "
        f"{summary['stall_rows']} stall rows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
