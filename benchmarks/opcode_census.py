"""Opcodes one driver call of a benchmark workload executes, by function.

    python3 benchmarks/opcode_census.py CHECKOUT [CHANGE] [--workload W [W ...] | all] [--top N]
        [--fail-above PCT]

A noise-free second view of a hot-path change on a shared host, beside the
timed pairs of ``paired.py``: each checkout runs, in a process of its own
on its own ``src/``, one untraced warm-up call of a ``benchmarks/perf``
workload's driver and then one more under ``sys.settrace`` with opcode
events on, counting every bytecode instruction executed in a Python frame
(C code, builtins and the standard library's C modules, counts nothing)
and every frame entered: a call or a generator's resumption, each of
which costs its own frame set-up beside the opcodes it runs.
The count is a property of the code and the workload, not of the host,
so two runs give the same total and a change of one opcode in a million
is a real one: the cyclic garbage collector, whose finalizers run when
allocation happens to trigger it, is off for the traced call, and
``PYTHONHASHSEED=0`` holds set orders fixed across processes.  About 20 s
per workload and checkout on a 2-core host.

The cost the count cannot see is one of layout: CPython (3.11 on) keeps up
to 29 instance attribute values inline, and an instance past that, or one
whose ``__dict__`` something read, gets a real dict, after which every
attribute access is slower at the same opcodes.  So the census also counts
the ``src/repro`` objects alive after the traced call — its machine, held
until the collector runs — that have a real dict (:func:`real_dict`).

Per workload: the totals of opcodes and of frames (and with two
checkouts both totals and the change), then the ``--top`` functions (by
opcodes, or by the change's size) as ``path:qualified name`` rows, their
opcodes then their frames, and one row for the rest, so the rows sum to
the totals, then the objects with a real dict, by class.  Several
workloads end with one table, a row each.  With two checkouts,
``--fail-above PCT`` exits 1 when any workload's opcodes or frames rose
by more than PCT percent (CI's ``opcode-census`` job passes 2) or the
change left more objects with a real dict than the parent.
"""

from __future__ import annotations

import argparse
import enum
import gc
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


_ABSENT = object()


def real_dict(obj) -> dict | None:
    """``obj``'s instance dict if CPython has materialised one, else None.

    Read through ``gc.get_referents``, which shows an instance's inline
    attribute values or, once it has one, its dict — never ``__dict__``,
    whose first read would itself make the dict.  A referent dict is the
    instance's when each of its items is the attribute of that name."""
    for ref in gc.get_referents(obj):
        if type(ref) is dict and ref and all(
                type(name) is str and getattr(obj, name, _ABSENT) is value
                for name, value in ref.items()):
            return ref
    return None


def dict_holders(objects) -> dict[str, int]:
    """``{"Class (n attributes)": objects}`` for the ``src/repro`` objects
    among ``objects`` that have a real dict (:func:`real_dict`), counting
    its items and the slots declared along the class's MRO; enum members
    aside, which the ``enum`` module gives one."""
    found = {}
    for obj in objects:
        kind = type(obj)
        module = vars(kind).get("__module__")  # not a str for every type
        if (isinstance(module, str) and module.startswith("repro.")
                and not isinstance(obj, enum.Enum)
                and (held := real_dict(obj)) is not None):
            count = len(held) + sum(len(vars(klass).get("__slots__", ()))
                                    for klass in kind.__mro__)
            key = f"{kind.__qualname__} ({count} attributes)"
            found[key] = found.get(key, 0) + 1
    return dict(sorted(found.items()))


def census(call) -> tuple[dict, dict, dict[str, int]]:
    """``call()`` under opcode tracing: ``{code object: opcodes}``,
    ``{code object: frames entered}``, and the :func:`dict_holders` among
    the objects alive after it, read while the collector is still off."""
    counts = {}
    frames = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def on_call(frame, event, arg):
        # Sent for every frame entered: a call or a generator resumption.
        code = frame.f_code
        frames[code] = frames.get(code, 0) + 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    gc.collect()
    gc.disable()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(None)
    try:
        return counts, frames, dict_holders(gc.get_objects())
    finally:
        gc.enable()


def by_function(counts: dict, root: Path) -> dict[str, int]:
    """``{path:qualified name: opcodes}``, a path under ``root`` relative to
    it (so two checkouts name their functions alike), any other by its
    file name alone."""
    rows = {}
    for code, count in counts.items():
        path = Path(code.co_filename)
        where = path.relative_to(root) if path.is_relative_to(root) else path.name
        key = f"{where}:{getattr(code, 'co_qualname', code.co_name)}"  # 3.11+
        rows[key] = rows.get(key, 0) + count
    return rows


def measure(checkout: Path, workload: str) -> dict:
    """One workload in ``checkout``, counted in this process: ``opcodes``
    and ``frames`` by function and the ``dicts`` left (:func:`census`)."""
    for part in ("benchmarks/perf", "src"):
        sys.path.insert(0, str(checkout / part))
    from workloads import BY_NAME  # the checkout's own

    spec = BY_NAME[workload]
    call = partial(spec.driver, spec.config, spec.params)  # no frame of its own
    call()  # warm-up: imports, caches and lazy tables, untraced
    counts, frames, dicts = census(call)
    root = checkout.resolve()
    return {"opcodes": by_function(counts, root),
            "frames": by_function(frames, root), "dicts": dicts}


def measure_in_child(checkout: str, workload: str) -> dict:
    command = [sys.executable, __file__, "--child", checkout, workload]
    environment = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, capture_output=True, text=True,
                          env=environment, check=True)
    return json.loads(done.stdout)


def rows_of(sides: list[dict[str, int]], top: int) -> list[tuple[str, list[int]]]:
    """The ``top`` functions — the most opcodes, or with two sides the
    largest change — then ``(N other functions)``: rows that sum to the
    totals, one count per side each."""
    names = set().union(*sides)
    table = {name: [side.get(name, 0) for side in sides] for name in names}

    def weight(name):
        counts = table[name]
        return abs(counts[-1] - counts[0]) if len(counts) > 1 else counts[0]

    ranked = sorted(names, key=lambda name: (-weight(name), name))
    rows = [(name, table[name]) for name in ranked[:top]]
    rest = ranked[top:]
    if rest:
        rows.append((f"({len(rest)} other functions)",
                     [sum(table[name][i] for name in rest)
                      for i in range(len(sides))]))
    return rows


def aligned(rows: list[tuple[str, list[int]]], top: int,
            sides: list[dict[str, int]]) -> list[list[int]]:
    """One count per side of ``sides`` for each row of :func:`rows_of`
    (ranked on another measure): a named row's own, and the rest row's
    what the named rows leave of each side's total."""
    counts = [[side.get(name, 0) for side in sides] for name, __ in rows[:top]]
    if rows[top:]:
        counts.append([sum(side.values()) - sum(row[i] for row in counts)
                       for i, side in enumerate(sides)])
    return counts


def risen(totals: dict[str, list[int]], percent: float,
          dicts: dict[str, list[int]] | None = None,
          frames: dict[str, list[int]] | None = None) -> list[str]:
    """The workloads whose opcodes or frames rose by more than
    ``percent`` percent, or whose objects with a real dict grew in number
    at all."""
    dicts, frames = dicts or {}, frames or {}

    def rose(counts):
        return counts is not None and counts[1] > counts[0] * (1 + percent / 100)

    return [workload for workload, counts in totals.items()
            if rose(counts) or rose(frames.get(workload))
            or (held := dicts.get(workload)) and held[1] > held[0]]


def change(before: int, after: int) -> str:
    return f"{100 * (after - before) / before:+.1f} %" if before else "-"


def totals_line(totals: list[int], unit: str) -> str:
    suffix = f" ({change(*totals)})" if len(totals) > 1 else ""
    return " -> ".join(f"{total:,}" for total in totals) + unit + suffix


def report(workload: str, sides: list[dict],
           top: int) -> tuple[list[int], list[int], list[int]]:
    """Print one workload's block; return its opcode totals, its frame
    totals and its objects with a real dict, one per side each."""
    dicts = [side["dicts"] for side in sides]
    frames = [side["frames"] for side in sides]
    sides = [side["opcodes"] for side in sides]
    totals = [sum(side.values()) for side in sides]
    frame_totals = [sum(side.values()) for side in frames]
    print(f"== {workload}: {totals_line(totals, ' opcodes')}, "
          f"{totals_line(frame_totals, ' frames')}")
    rows = rows_of(sides, top)
    for (name, counts), entered in zip(rows, aligned(rows, top, frames)):
        cells = ""
        for column in (counts, entered):
            cells += "".join(f"{count:>14,}" for count in column)
            if len(column) > 1:
                cells += f"{column[-1] - column[0]:>+14,}"
        print(f"{cells}  {name}")
    held = [sum(side.values()) for side in dicts]
    print("   objects with a real __dict__: " + " -> ".join(map(str, held)))
    for name in sorted(set().union(*dicts)):
        cells = " -> ".join(str(side.get(name, 0)) for side in dicts)
        print(f"{cells:>14}  {name}")
    return totals, frame_totals, held


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(measure(Path(argv[1]), argv[2])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT",
                        help="one checkout, or the parent's and the change's")
    parser.add_argument("--workload", nargs="+", default=["all"],
                        help="workload names from BENCHMARK.json, or 'all'")
    parser.add_argument("--top", type=int, default=12,
                        help="functions listed per workload (default 12)")
    parser.add_argument("--fail-above", type=float, metavar="PCT",
                        help="exit 1 if a workload's opcodes or frames rose by more")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("one checkout or two")
    if args.fail_above is not None and len(args.checkouts) != 2:
        parser.error("--fail-above compares two checkouts")
    workloads = args.workload
    if workloads == ["all"]:
        workloads = [workload["name"] for workload in SPEC["workloads"]]
    totals, frames, dicts = {}, {}, {}
    for workload in workloads:
        sides = [measure_in_child(checkout, workload)
                 for checkout in args.checkouts]
        totals[workload], frames[workload], dicts[workload] = report(
            workload, sides, args.top)
    if len(totals) > 1:
        two = len(args.checkouts) == 2
        print("\n| workload | " + ("parent | change | change | frames | "
                                   "real dicts |" if two else
                                   "opcodes | frames | real dicts |"))
        print("|---|" + ("---:|" * (5 if two else 3)))
        for workload, counts in totals.items():
            cells = " | ".join(f"{count:,}" for count in counts)
            extra = f" | {change(*counts)}" if two else ""
            entered = totals_line(frames[workload], "")
            held = " -> ".join(map(str, dicts[workload]))
            print(f"| `{workload}` | {cells}{extra} | {entered} | {held} |")
    if args.fail_above is not None and (
            rose := risen(totals, args.fail_above, dicts, frames)):
        print(f"\nopcodes or frames rose by more than {args.fail_above:g} %, "
              "or left more objects with a real __dict__: " + ", ".join(rose))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
