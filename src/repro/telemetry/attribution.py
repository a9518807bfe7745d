"""Cycle attribution: where every simulated cycle went, and why.

Three layers, each built from state the simulator already keeps:

* **Cycle ledgers** — :meth:`ProcessorNode.cycle_ledger` partitions each
  core's ``[0, end)`` cycles into exact state classes (the always-on
  ``_change_state`` counters close every interval, so the partition sums
  to the total bit-exactly — :func:`check_conservation` enforces it).
  The MPMMU and DMA engines contribute occupancy ledgers (busy/idle and
  streaming/stall counters) that are informative rather than
  conservation-checked: their work overlaps the cores' cycles.

* **Critical-path extraction** — when
  :attr:`~repro.telemetry.config.TelemetryConfig.attribution` is armed,
  the eMPI runtime brackets each blocking/non-blocking collective with
  zero-cycle ``cp+``/``cph``/``cp-`` events.  :func:`extract_ops` groups
  them per op occurrence; :func:`critical_path` threads causal edges
  (same-rank program order plus FIFO-matched send→recv pairs) and walks
  the binding chain back from the op's last exit, yielding the longest
  dependency path with per-edge slack.  A synthetic ``skew`` edge from
  the op's earliest entry makes the per-edge cycles telescope exactly to
  the op latency (``max(cp-) - min(cp+)``).

* **The bottleneck report** — :func:`build_report` assembles ledgers,
  top-k stall sources (with fault/credit context), the ``_execute``
  dispatch histogram (ROADMAP item 2's input), windowed link utilization
  from the sampled spatial deltas, and the critical paths into one
  JSON-ready dict; :func:`render_report` is its terminal view.
"""

from __future__ import annotations

from repro.errors import MedeaError
from repro.kernel.trace import CP_ENTER, CP_EXIT, CP_HOP, EventLog

#: Report schema identifier, bumped on breaking layout changes
#: (checked by ``benchmarks/validate_report.py`` and the CI smoke job).
REPORT_SCHEMA = "medea.attribution/1"

#: Ledger classes counted as *stalls* (everything but useful work and
#: the post-exit tail) — the candidate set for the top-k table.
STALL_CLASSES = (
    "wait_msg",
    "mem_stall",
    "credit_stall",
    "tx_stream",
    "barrier_spin",
    "lock_spin",
)

#: Every class a tile ledger carries, in report column order.
LEDGER_CLASSES = ("compute",) + STALL_CLASSES + ("idle",)


class AttributionError(MedeaError):
    """A ledger failed its conservation check — the instrumentation has
    a hole (a state change that bypassed ``_change_state``)."""


# -- cycle ledgers ---------------------------------------------------------------


def tile_ledgers(system) -> list[dict]:
    """Per-tile exact cycle partitions, conservation-checked.

    Each row carries the rank, the tile's topology label (``2,0`` on a
    grid, ``c1:2,0`` on a chiplet system), every ledger class, and
    ``total`` (always equal to the elapsed cycle count —
    :class:`AttributionError` otherwise, because an inexact ledger would
    silently misattribute).
    """
    cycles = system.sim.cycle
    tiles = []
    for node in system.nodes:
        ledger = node.cycle_ledger(cycles)
        total = sum(ledger.values())
        if total != cycles:
            raise AttributionError(
                f"rank {node.rank} ledger sums to {total}, "
                f"expected {cycles}: {ledger}"
            )
        tiles.append({
            "rank": node.rank,
            "tile": system.topology.label_of(node.node_id),
            "total": total,
            **ledger,
        })
    return tiles


def aggregate_ledger(tiles: list[dict]) -> dict:
    """Sum the per-tile ledgers into one machine-wide partition."""
    agg = {cls: 0 for cls in LEDGER_CLASSES}
    for tile in tiles:
        for cls in LEDGER_CLASSES:
            agg[cls] += tile[cls]
    agg["total"] = sum(agg[cls] for cls in LEDGER_CLASSES)
    return agg


def check_conservation(system) -> list[dict]:
    """Raise :class:`AttributionError` unless every tile ledger sums to
    the elapsed cycles exactly; returns the (validated) tile rows."""
    return tile_ledgers(system)


def occupancy_ledgers(system) -> dict:
    """MPMMU and DMA occupancy (overlapping the cores, not partitioned)."""
    cycles = system.sim.cycle
    busy = system.mpmmu.stats.get("busy_cycles")
    mpmmu = {
        "busy": busy,
        "idle": max(0, cycles - busy),
        "requests": system.mpmmu.stats.get("requests_received"),
    }
    dma = []
    for node in system.nodes:
        if node.dma is None:
            continue
        stats = node.dma.stats
        dma.append({
            "rank": node.rank,
            "flits_sent": stats.get("flits_sent"),
            "credit_stall_cycles": stats.get("credit_stall_cycles"),
            "values_reduced": stats.get("values_reduced"),
            "messages_started": stats.get("messages_started"),
            "retx_sent": stats.get("retx_sent"),
        })
    return {"mpmmu": mpmmu, "dma": dma}


def top_stalls(
    tiles: list[dict],
    cycles: int,
    k: int = 8,
    occupancy: dict | None = None,
    faults: dict | None = None,
) -> list[dict]:
    """The k largest (rank, stall class) cells, with their context.

    Credit stalls carry the rank's DMA credit/retransmit counters (the
    usual culprit); every row carries the fault summary when an injector
    ran, since dropped flits manifest as wait/credit time downstream.
    """
    dma_by_rank = {}
    if occupancy is not None:
        dma_by_rank = {row["rank"]: row for row in occupancy["dma"]}
    rows = []
    for tile in tiles:
        for cls in STALL_CLASSES:
            count = tile[cls]
            if not count:
                continue
            context = []
            if cls in ("credit_stall", "tx_stream"):
                dma = dma_by_rank.get(tile["rank"])
                if dma is not None:
                    context.append(
                        f"dma: {dma['credit_stall_cycles']} credit-stall cyc, "
                        f"{dma['retx_sent']} retx"
                    )
            if faults:
                active = ", ".join(
                    f"{name}={value}"
                    for name, value in sorted(faults.items())
                    if isinstance(value, int) and value
                )
                if active:
                    context.append(f"faults: {active}")
            rows.append({
                "rank": tile["rank"],
                "tile": tile.get("tile", ""),
                "class": cls,
                "cycles": count,
                "share": count / cycles if cycles else 0.0,
                "context": "; ".join(context),
            })
    rows.sort(key=lambda row: (-row["cycles"], row["rank"], row["class"]))
    return rows[:k]


# -- dispatch histogram ----------------------------------------------------------


def dispatch_histogram(system) -> dict[str, int]:
    """Aggregate ``_execute`` opcode counts across tiles, largest first.

    This is the direct input to ROADMAP item 2's dispatch-table work:
    the head of this histogram is the order the jump table should test.
    """
    histogram: dict[str, int] = {}
    for node in system.nodes:
        for name, value in node.stats.as_dict().items():
            if name.startswith("ops_") and value:
                opcode = name[len("ops_"):]
                histogram[opcode] = histogram.get(opcode, 0) + value
    return dict(
        sorted(histogram.items(), key=lambda item: (-item[1], item[0]))
    )


# -- windowed link utilization ---------------------------------------------------


def windowed_link_utilization(registry) -> dict:
    """Per-sample-window busiest link + aggregate flit motion.

    Built from the sampled ``noc.link.*.transits`` deltas the spatial
    matrices already feed the registry, so it costs nothing new; each
    window reports its span, total transits, and the single busiest link
    with its utilization (transits per cycle of window).
    """
    windows = []
    totals: dict[str, float] = {}
    prev_cycle = 0
    for cycle, row in registry.samples:
        links = {
            name: delta for name, delta in row.items()
            if name.startswith("noc.link.") and name.endswith(".transits")
        }
        span = cycle - prev_cycle
        prev_cycle = cycle
        if not links or span <= 0:
            continue
        for name, delta in links.items():
            totals[name] = totals.get(name, 0) + delta
        busiest, transits = max(
            links.items(), key=lambda item: (item[1], item[0])
        )
        windows.append({
            "cycle": cycle,
            "span": span,
            "flits": sum(links.values()),
            "busiest": busiest[len("noc."):-len(".transits")],
            "busiest_transits": transits,
            "busiest_util": transits / span,
        })
    top_links = sorted(
        totals.items(), key=lambda item: (-item[1], item[0])
    )[:8]
    return {
        "windows": windows,
        "top_links": [
            {
                "link": name[len("noc."):-len(".transits")],
                "transits": value,
            }
            for name, value in top_links
        ],
    }


# -- critical-path extraction ----------------------------------------------------


def extract_ops(
    events: EventLog, rank_to_node: dict[int, int]
) -> dict[str, dict]:
    """Group the ``cp+``/``cph``/``cp-`` events per op occurrence.

    Returns ``{op_key: {rank: {"start", "end", "hops"}}}`` in first-seen
    order (dicts preserve it); ``hops`` rows are ``(cycle, kind, peer)``
    with ``kind`` in ``snd``/``rcv`` and ``peer`` a rank or ``"*"`` for
    a hardware multicast post.
    """
    rank_of = {node: rank for rank, node in rank_to_node.items()}
    ops: dict[str, dict[int, dict]] = {}

    def rank_entry(op: str, tile: int) -> dict:
        entry = ops.setdefault(op, {})
        return entry.setdefault(
            rank_of[tile], {"start": None, "end": None, "hops": []}
        )

    for cycle, tile, kind, op, payload in events.program:
        if kind == CP_ENTER:
            rank_entry(op, tile)["start"] = cycle
        elif kind == CP_EXIT:
            rank_entry(op, tile)["end"] = cycle
        elif kind == CP_HOP:
            rank_entry(op, tile)["hops"].append((cycle, *payload))
    return ops


def critical_path(op: str, ranks: dict[int, dict]) -> dict | None:
    """The binding dependency chain through one collective op.

    Event graph: per rank, ``cp+`` → hops in program order → ``cp-``;
    plus one edge per matched send→recv pair (FIFO per sender/receiver
    pair; a multicast ``snd *`` feeds every receiver naming that
    sender).  Walking back from the *latest* ``cp-`` and always taking
    the latest-arriving predecessor yields the chain that actually
    bounded the op; the runner-up's margin is the edge's ``slack``.  A
    final ``skew`` edge from the earliest ``cp+`` makes the edge cycles
    telescope to ``latency = max(cp-) - min(cp+)`` exactly.
    """
    complete = {
        rank: entry for rank, entry in ranks.items()
        if entry["start"] is not None and entry["end"] is not None
    }
    if not complete:
        return None
    events: dict[int, list[tuple[str, int, str | None]]] = {}
    for rank, entry in complete.items():
        events[rank] = (
            [("start", entry["start"], None)]
            + [(kind, cycle, peer) for cycle, kind, peer in entry["hops"]]
            + [("end", entry["end"], None)]
        )

    # FIFO send queues per (sender, receiver); "*" fans out to everyone.
    send_queues: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for rank, rows in events.items():
        for index, (kind, __, peer) in enumerate(rows):
            if kind != "snd":
                continue
            receivers = (
                [other for other in events if other != rank]
                if peer == "*" else [peer]
            )
            for receiver in receivers:
                send_queues.setdefault((rank, receiver), []).append(
                    (rank, index)
                )
    matches: dict[tuple[int, int], tuple[int, int]] = {}
    for rank, rows in events.items():
        for index, (kind, __, peer) in enumerate(rows):
            if kind != "rcv" or peer == "*":
                continue
            queue = send_queues.get((peer, rank))
            if queue:
                matches[(rank, index)] = queue.pop(0)

    def cycle_of(node: tuple[int, int]) -> int:
        return events[node[0]][node[1]][1]

    global_start = min(entry["start"] for entry in complete.values())
    end_rank = max(complete, key=lambda rank: (complete[rank]["end"], rank))
    node = (end_rank, len(events[end_rank]) - 1)
    raw_edges: list[dict] = []
    while True:
        rank, index = node
        preds: list[tuple[tuple[int, int], str]] = []
        if index > 0:
            preds.append(((rank, index - 1), "local"))
        matched = matches.get(node)
        if matched is not None:
            preds.append((matched, "xfer"))
        if not preds:
            break
        # Binding = latest arrival; a tie goes to the transfer edge
        # (the communication is what the report should name).
        preds.sort(key=lambda pred: (cycle_of(pred[0]), pred[1] == "xfer"))
        binding, kind = preds[-1]
        slack = (
            cycle_of(binding) - cycle_of(preds[0][0])
            if len(preds) == 2 else 0
        )
        raw_edges.append({
            "from": binding,
            "to": node,
            "kind": kind,
            "slack": slack,
        })
        node = binding
    raw_edges.reverse()
    origin = node
    edges = []
    if cycle_of(origin) > global_start:
        min_rank = min(
            (rank for rank, entry in complete.items()
             if entry["start"] == global_start),
        )
        edges.append({
            "from_rank": min_rank,
            "from_event": "start",
            "from_cycle": global_start,
            "to_rank": origin[0],
            "to_event": events[origin[0]][origin[1]][0],
            "to_cycle": cycle_of(origin),
            "cycles": cycle_of(origin) - global_start,
            "kind": "skew",
            "slack": 0,
        })
    for edge in raw_edges:
        src, dst = edge["from"], edge["to"]
        src_kind, src_cycle, src_peer = events[src[0]][src[1]]
        dst_kind, dst_cycle, dst_peer = events[dst[0]][dst[1]]
        edges.append({
            "from_rank": src[0],
            "from_event": src_kind if src_peer is None
            else f"{src_kind}>{src_peer}" if src_kind == "snd"
            else f"{src_kind}<{src_peer}",
            "from_cycle": src_cycle,
            "to_rank": dst[0],
            "to_event": dst_kind if dst_peer is None
            else f"{dst_kind}>{dst_peer}" if dst_kind == "snd"
            else f"{dst_kind}<{dst_peer}",
            "to_cycle": dst_cycle,
            "cycles": dst_cycle - src_cycle,
            "kind": edge["kind"],
            "slack": edge["slack"],
        })
    latency = complete[end_rank]["end"] - global_start
    bound = None
    transfer_edges = [edge for edge in edges if edge["kind"] == "xfer"]
    if transfer_edges:
        bound = max(transfer_edges, key=lambda edge: edge["cycles"])
    elif edges:
        bound = max(edges, key=lambda edge: edge["cycles"])
    return {
        "op": op,
        "ranks": len(complete),
        "start": global_start,
        "end": complete[end_rank]["end"],
        "latency": latency,
        "bound_hop": (
            None if bound is None else {
                "from_rank": bound["from_rank"],
                "to_rank": bound["to_rank"],
                "event": bound["to_event"],
                "cycles": bound["cycles"],
                "kind": bound["kind"],
            }
        ),
        "edges": edges,
    }


def critical_paths(
    events: EventLog, rank_to_node: dict[int, int]
) -> list[dict]:
    """Critical path of every attributed op, in program order."""
    paths = []
    for op, ranks in extract_ops(events, rank_to_node).items():
        path = critical_path(op, ranks)
        if path is not None:
            paths.append(path)
    return paths


# -- the report ------------------------------------------------------------------


def attribution_summary(system) -> dict:
    """Compact ledger summary for DSE experiment rows and telemetry
    dumps: the aggregate partition plus the single worst stall cell."""
    tiles = tile_ledgers(system)
    aggregate = aggregate_ledger(tiles)
    cycles = system.sim.cycle
    worst = max(
        (
            {"rank": tile["rank"], "class": cls, "cycles": tile[cls]}
            for tile in tiles for cls in STALL_CLASSES
        ),
        key=lambda row: row["cycles"],
        default=None,
    )
    return {
        "cycles": cycles,
        "aggregate": aggregate,
        "top_stall": worst if worst and worst["cycles"] else None,
    }


def build_report(system, workload: str = "", stats: dict | None = None) -> dict:
    """Assemble the full bottleneck report for one finished run."""
    cycles = system.sim.cycle
    tiles = tile_ledgers(system)
    occupancy = occupancy_ledgers(system)
    faults = None
    if system.injector is not None:
        faults = system.injector.as_dict()
    links = None
    if system.telemetry is not None:
        links = windowed_link_utilization(system.telemetry)
    return {
        "schema": REPORT_SCHEMA,
        "workload": workload,
        "cycles": cycles,
        "tile_labels": [tile["tile"] for tile in tiles],
        "ledger": {
            "tiles": tiles,
            "aggregate": aggregate_ledger(tiles),
            "mpmmu": occupancy["mpmmu"],
            "dma": occupancy["dma"],
            "conserved": True,
        },
        "stalls": top_stalls(
            tiles, cycles, occupancy=occupancy, faults=faults
        ),
        "dispatch": dispatch_histogram(system),
        "links": links,
        "critical_paths": critical_paths(system.events, system.rank_to_node),
        **({"faults": faults} if faults is not None else {}),
        **({"stats": stats} if stats is not None else {}),
    }


def _percent(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "  0.0%"


def _rank_name(report: dict, rank: int) -> str:
    """``rank 3 (c1:0,1)`` — rank plus its topology tile label.

    Reports predating the label column (or hand-built ones) fall back
    to the bare rank.
    """
    labels = report.get("tile_labels")
    if labels and 0 <= rank < len(labels):
        return f"rank {rank} ({labels[rank]})"
    return f"rank {rank}"


def render_report(report: dict, top_paths: int = 4) -> str:
    """Terminal view of :func:`build_report`'s dict."""
    cycles = report["cycles"]
    lines = [
        f"cycle attribution: {report['workload'] or 'workload'} "
        f"({cycles} cycles)",
        "",
        "where the cycles went (per tile):",
    ]
    tile_width = max(
        (len(tile.get("tile", "")) for tile in report["ledger"]["tiles"]),
        default=0,
    )
    tile_width = max(tile_width, len("tile")) if tile_width else 0
    header = "  rank  " + (
        f"{'tile':<{tile_width}}  " if tile_width else ""
    ) + "".join(f"{cls:>14}" for cls in LEDGER_CLASSES)
    lines.append(header)
    for tile in report["ledger"]["tiles"]:
        cells = "".join(
            f"{tile[cls]:>7} {_percent(tile[cls], cycles)}"
            for cls in LEDGER_CLASSES
        )
        label = (
            f"{tile.get('tile', ''):<{tile_width}}  " if tile_width else ""
        )
        lines.append(f"  {tile['rank']:>4}  {label}{cells}")
    aggregate = report["ledger"]["aggregate"]
    total = aggregate["total"]
    cells = "".join(
        f"{aggregate[cls]:>7} {_percent(aggregate[cls], total)}"
        for cls in LEDGER_CLASSES
    )
    lines.append(f"   all  {' ' * (tile_width + 2) if tile_width else ''}{cells}")
    mpmmu = report["ledger"]["mpmmu"]
    lines.append(
        f"  mpmmu: busy {mpmmu['busy']} {_percent(mpmmu['busy'], cycles)}"
        f" of {cycles} cycles, {mpmmu['requests']} requests"
    )
    if report["stalls"]:
        lines += ["", "top stall sources:"]
        for row in report["stalls"]:
            context = f"  [{row['context']}]" if row["context"] else ""
            lines.append(
                f"  {_rank_name(report, row['rank']):<18} {row['class']:<13}"
                f" {row['cycles']:>8} cyc {_percent(row['cycles'], cycles)}"
                f"{context}"
            )
    if report["dispatch"]:
        lines += ["", "dispatch histogram (_execute opcodes):"]
        for opcode, count in list(report["dispatch"].items())[:12]:
            lines.append(f"  {opcode:<12} {count:>10}")
    links = report.get("links")
    if links and links["windows"]:
        lines += ["", "busiest link per sample window:"]
        for window in links["windows"][:10]:
            lines.append(
                f"  cycle {window['cycle']:>8}: {window['busiest']}"
                f" {window['busiest_transits']} transits"
                f" ({window['busiest_util']:.2f} flits/cyc,"
                f" window total {window['flits']})"
            )
        if len(links["windows"]) > 10:
            lines.append(
                f"  ... {len(links['windows']) - 10} more windows"
            )
    paths = report["critical_paths"]
    if paths:
        lines += ["", "critical paths:"]
        shown = sorted(
            paths, key=lambda path: -path["latency"]
        )[:top_paths]
        for path in shown:
            bound = path["bound_hop"]
            bound_text = (
                "no transfer edge" if bound is None else
                f"bound by {_rank_name(report, bound['from_rank'])} -> "
                f"{_rank_name(report, bound['to_rank'])} {bound['event']}"
                f" (+{bound['cycles']} cyc)"
            )
            lines.append(
                f"  {path['op']}: {path['latency']} cyc across"
                f" {path['ranks']} ranks, {bound_text}"
            )
            for edge in path["edges"]:
                lines.append(
                    f"    {edge['kind']:<5} {_rank_name(report, edge['from_rank'])}"
                    f" {edge['from_event']} @{edge['from_cycle']}"
                    f" -> {_rank_name(report, edge['to_rank'])} {edge['to_event']}"
                    f" @{edge['to_cycle']}  +{edge['cycles']} cyc"
                    f" (slack {edge['slack']})"
                )
        if len(paths) > len(shown):
            lines.append(f"  ... {len(paths) - len(shown)} more ops")
    return "\n".join(lines)
