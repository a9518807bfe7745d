"""The machine's state, read by reflection: runs compare on
:func:`component_state`, :func:`changes` names the leaves two readings
differ at, reports print :func:`state_line`.  The simulation never reads
it, and a timed run must not: a read gives each object it reads that has
an instance dict a real ``__dict__`` (CPython 3.11), slower to use from
then on — a slotted tile's six ``Component`` fields included.  Every field
is read where it lives: in the instance dict, or in a slot declared
anywhere along the class's MRO (:func:`attributes`).  ``src/`` imports it
where a report or a reading is made, so a run that stops as asked never
loads it (0.1 MiB of peak RSS on ``allreduce_tree_8w_lossy``).
"""

from __future__ import annotations

import random
from collections import deque, namedtuple
from collections.abc import Iterator
from dataclasses import fields, is_dataclass
from enum import Enum
from operator import attrgetter, methodcaller

from repro.kernel.stats import CounterSet, LatencyStat

#: Attributes no section reads: the schedule (``active`` is the kernel's),
#: the host's hints (the quiet arm's bookkeeping, the lone path's input
#: port), uids (a flit's come from a process-wide counter), references
#: back into the machine (each part is read where it is owned), the static
#: build, bulk memory (a system's ``memory`` section) and the host-side
#: branch-plan cache.
_NOT_STATE = frozenset({
    "active", "_quiet_until", "_acted_at", "_lone_in", "uid",
    "sim", "fabric", "owner", "tie", "dma", "injector", "faults", "clock",
    "events", "topology", "map", "lut", "codec", "_bound", "_lone_bound",
    "_sets", "store", "mcast_plans",
})
_SCALARS = frozenset({type(None), bool, int, float, str})
_CONVERTERS: dict = {}  # type -> _converter(type): the censuses run per step
_SLOTS: dict = {}  # type -> the slot names along its MRO


def plain(value):
    """``value`` as data two machines can be compared on: a counter set or
    latency statistic as its (folded) dict, a slotted dataclass (a flit,
    whose fields are scalars) as a named tuple of its fields, any
    other object as a dict of its :func:`attributes` but the
    ``_NOT_STATE`` ones and bound methods."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind not in _CONVERTERS:
        _CONVERTERS[kind] = _converter(kind)
    return _CONVERTERS[kind](value)


def _converter(kind: type):
    if issubclass(kind, (int, float, str, Enum, frozenset)):
        return lambda value: value
    if issubclass(kind, set):  # a copy: the reading outlives the step
        return set
    if is_dataclass(kind) and "__slots__" in vars(kind):
        names = [field.name for field in fields(kind)
                 if field.name not in _NOT_STATE]
        read, record = attrgetter(*names), namedtuple(kind.__name__.lower(), names)
        return lambda value: record(*read(value))
    if issubclass(kind, (CounterSet, LatencyStat)):
        return methodcaller("as_dict")
    if issubclass(kind, random.Random):
        return methodcaller("getstate")
    if issubclass(kind, dict):
        return lambda value: {key: plain(item) for key, item in value.items()}
    if issubclass(kind, (list, tuple, deque)):
        return lambda value: [plain(item) for item in value]
    return lambda value: {
        name: plain(item) for name, item in attributes(value)
        if name not in _NOT_STATE and not callable(item)
    }


def attributes(value) -> Iterator[tuple[str, object]]:
    """``value``'s attributes as ``(name, value)``, in order: its instance
    dict's, if its class gives it one, then each slot declared along its
    MRO, base classes first."""
    kind = type(value)
    if kind not in _SLOTS:
        _SLOTS[kind] = [name for klass in reversed(kind.__mro__)
                        for name in vars(klass).get("__slots__", ())]
    if kind.__dictoffset__:
        yield from vars(value).items()
    for name in _SLOTS[kind]:
        yield name, getattr(value, name)


def component_state(component) -> dict:
    """Everything a step of ``component`` can change but whether it is
    awake afterwards, the quiet arm's two integers and its bulk memory."""
    state = plain(component)
    for part in ("tie", "dma"):  # a tile's own, which its agent points at
        if hasattr(component, part):
            state[part] = plain(getattr(component, part))
    return state


def changes(path: str, before, after) -> Iterator[tuple[str, object, object]]:
    """Every leaf at which two plain values differ, in order, as
    ``(path, before, after)``: descends into dicts, named tuples and
    equal-length lists; anything else that differs is a leaf."""
    if hasattr(before, "_asdict") and type(before) is type(after):
        before, after = before._asdict(), after._asdict()
    if isinstance(before, dict) and isinstance(after, dict):
        pairs = [(f"{path}.{key}" if path else str(key),
                  before.get(key, "<absent>"), after.get(key, "<absent>"))
                 for key in {**before, **after}]
    elif (isinstance(before, list) and isinstance(after, list)
          and len(before) == len(after)):
        pairs = [(f"{path}[{index}]", *pair)
                 for index, pair in enumerate(zip(before, after))]
    else:
        yield path, before, after
        return
    for pair in pairs:
        if pair[1] != pair[2]:
            yield from changes(*pair)


def short(value) -> str:
    """``value`` for a report: an Enum's value, a repr of up to 60
    characters, or a longer repr's brackets around "…"."""
    text = str(value.value) if isinstance(value, Enum) else repr(value)
    return text if len(text) <= 60 else f"{text[0]}…{text[-1]}"


def state_line(component) -> str:
    """``component``'s report line, by one rule over its state: each
    Enum-valued field and each private (``_…``) list, tuple, deque or set
    with a true item, in attribute order, as ``name=value`` without the
    underscore, cut by :func:`short`; no other field is read."""
    return ", ".join(
        f"{name.lstrip('_')}={short(plain(value))}"
        for name, value in attributes(component)
        if name not in _NOT_STATE and (
            isinstance(value, Enum)
            or name.startswith("_")
            and isinstance(value, (list, tuple, deque, set)) and any(value))
    )


def component_lines(components) -> list[str]:
    """``  <name>: <state_line>`` for each component whose line is not empty."""
    return [f"  {component.name}: {line}" for component in components
            if (line := state_line(component))]
