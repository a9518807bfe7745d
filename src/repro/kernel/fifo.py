"""Hardware FIFO queue model.

Every buffered structure in MEDEA — the arbiter queues of Fig. 3, the
MPMMU's Pif-Request/Pif-Data/outgoing queues, the TIE receive segments —
is an instance of :class:`Fifo`.  The model is untimed (push and pop are
performed by the owning component inside its own clocked ``step``); what it
adds over ``collections.deque`` is bounded capacity with explicit full/empty
errors.  It counts nothing per item: an owner whose report needs a count
keeps it where it moves the item (the MPMMU's per-flit counters).
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

from repro.errors import ConfigError, FifoEmptyError, FifoFullError

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded (or unbounded) first-in first-out queue."""

    def __init__(self, capacity: int | None = None, name: str = "fifo") -> None:
        if capacity is not None and capacity < 1:
            raise ConfigError(f"{name}: capacity must be >= 1 or None, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._items: deque[T] = deque()
        self.full_rejections = 0

    # -- state ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def free_slots(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity - len(self._items)

    # -- operations -------------------------------------------------------------

    def push(self, item: T) -> None:
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            self.full_rejections += 1
            raise FifoFullError(f"{self.name}: push on full FIFO (cap={capacity})")
        items.append(item)

    def pop(self) -> T:
        items = self._items
        if not items:
            raise FifoEmptyError(f"{self.name}: pop on empty FIFO")
        return items.popleft()

    def peek(self) -> T:
        if not self._items:
            raise FifoEmptyError(f"{self.name}: peek on empty FIFO")
        return self._items[0]

    def clear(self) -> None:
        self._items.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Fifo {self.name} {len(self._items)}/{cap}>"
