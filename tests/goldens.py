"""The golden store: every pinned value, one check, one regenerate command.

A pin is a value the suite holds a run to: cycle counts, protocol
counters, report texts.  Each belongs to one *owner*, the test module
named in ``OWNERS``, which declares the owner's keys without simulating
(``PIN_KEYS``) and measures all of them (``measure_pins()``).  The values
live under ``pinned/``: ``<owner>.json`` maps readable keys to JSON
values (one serialisation: ``indent=1``, sorted keys), and a text value
(a report) is the file ``<owner>/<key>.txt``.  This module is the only
code that reads or writes those files:

* :func:`check` fails with one ``owner key: pinned X, measured Y`` line
  per moved leaf (a dict entry, a list item, a line of a text);
* :func:`audit` finds, without simulating, committed keys an owner does
  not declare, declared keys with nothing committed, and files no owner
  claims;
* ``PYTHONPATH=src python -m tests.goldens --regen [owner ...]``
  re-measures the named owners (all by default), rewrites their files
  and prints ``owner key: old → new`` per moved value, then ``owner: N
  changed, M unchanged``.
"""

from __future__ import annotations

import argparse
import importlib
import json
from itertools import zip_longest
from pathlib import Path

STORE = Path(__file__).with_name("pinned")

#: owner -> the module that declares its keys and measures them.
OWNERS = {
    "collective_cycles": "tests.empi.cycle_pins",
    "observability": "tests.telemetry.test_output_pins",
    "protocol_counters": "tests.pe.test_protocol_counters",
    "reports": "tests.dse.conftest",
    "smoke": "tests.telemetry.test_attribution",
    "synthetic_traffic": "tests.noc.test_traffic_pins",
}

#: Moved leaves listed per key; a rewritten report moves every line.
MAX_LINES = 12


class _Missing:
    def __repr__(self) -> str:
        return "missing"


MISSING = _Missing()


def load(owner: str) -> dict:
    """Every committed value of ``owner``: its JSON table and its texts."""
    table_path = STORE / f"{owner}.json"
    table = json.loads(table_path.read_text()) if table_path.exists() else {}
    for path in (STORE / owner).glob("*.txt"):
        table[path.stem] = path.read_text(encoding="utf-8")
    return table


def _files(owner: str, table: dict) -> dict[Path, str]:
    """The store's files holding ``table``: a ``str`` value is a text."""
    files = {STORE / owner / f"{key}.txt": value
             for key, value in table.items() if isinstance(value, str)}
    values = {key: value for key, value in table.items()
              if not isinstance(value, str)}
    if values:
        files[STORE / f"{owner}.json"] = (
            json.dumps(values, indent=1, sort_keys=True) + "\n"
        )
    return files


def write(owner: str, table: dict) -> None:
    """Make ``table`` the committed values of ``owner``."""
    files = _files(owner, table)
    for stale in _files(owner, load(owner)).keys() - files.keys():
        stale.unlink()
    for path, text in files.items():
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _moved(path: str, old, new):
    """``(path, old, new)`` for every leaf at which ``new`` differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _moved(f"{path}.{key}", old.get(key, MISSING),
                              new.get(key, MISSING))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (before, after) in enumerate(zip(old, new)):
            yield from _moved(f"{path}[{index}]", before, after)
    elif isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        lines = zip_longest(old.splitlines(keepends=True),
                            new.splitlines(keepends=True), fillvalue=MISSING)
        for number, (before, after) in enumerate(lines, 1):
            if before != after:
                yield f"{path} line {number}", before, after
    elif old != new:
        yield path, old, new


def _describe(owner: str, key: str, old, new, template: str) -> list[str]:
    """One line per moved leaf of ``key`` (at most ``MAX_LINES``)."""
    lines = [template.format(path, before, after)
             for path, before, after in _moved(f"{owner} {key}", old, new)]
    if len(lines) > MAX_LINES:
        lines[MAX_LINES:] = [f"{owner} {key}: … and {len(lines) - MAX_LINES} more"]
    return lines


def _as_stored(measured: dict) -> dict:
    """``measured`` as the store can hold it (tuples become lists)."""
    return json.loads(json.dumps(measured))


def check(owner: str, measured: dict) -> None:
    """Fail unless every measured value equals its committed pin."""
    pinned = load(owner)
    lines = [line for key, value in _as_stored(measured).items()
             for line in _describe(owner, key, pinned.get(key, MISSING), value,
                                   "{}: pinned {!r}, measured {!r}")]
    if lines:
        raise AssertionError("\n".join(lines) + "\n(an intended change "
                             "re-pins with `PYTHONPATH=src python -m "
                             f"tests.goldens --regen {owner}`)")


def audit() -> list[str]:
    """Where the store and its owners disagree, found without simulating."""
    problems, claimed = [], set()
    for owner, module in OWNERS.items():
        committed = load(owner)
        keys = set(importlib.import_module(module).PIN_KEYS)
        problems += [f"{owner} {key}: committed, but {module} does not "
                     "declare it" for key in sorted(committed.keys() - keys)]
        problems += [f"{owner} {key}: declared, but nothing is committed"
                     for key in sorted(keys - committed.keys())]
        claimed |= _files(owner, committed).keys()
    return problems + [f"{path.relative_to(STORE)}: no owner claims this file"
                       for path in sorted(STORE.rglob("*"))
                       if path.is_file() and path not in claimed]


def regen(owner: str) -> list[str]:
    """Re-measure ``owner``, rewrite its files, say what moved."""
    old = load(owner)
    new = _as_stored(importlib.import_module(OWNERS[owner]).measure_pins())
    moved = [_describe(owner, key, old.get(key, MISSING),
                       new.get(key, MISSING), "{}: {!r} → {!r}")
             for key in sorted(old.keys() | new.keys())]
    write(owner, new)
    changed = sum(1 for lines in moved if lines)
    return [line for lines in moved for line in lines] + [
        f"{owner}: {changed} changed, {len(moved) - changed} unchanged"
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        prog="python -m tests.goldens",
        description="Re-measure pinned values and rewrite the golden store.",
    )
    parser.add_argument("--regen", nargs="*", metavar="OWNER", required=True,
                        choices=list(OWNERS),
                        help="owners to re-measure (default: all)")
    for owner in parser.parse_args().regen or OWNERS:
        print("\n".join(regen(owner)), flush=True)
