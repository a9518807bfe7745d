"""Lightweight statistics collection for simulator components."""

from __future__ import annotations

from bisect import bisect_left
from typing import Any


class CounterSet:
    """A named bag of integer counters.

    Counting must stay cheap (it happens on hot per-cycle paths), so this is
    a thin wrapper over a dict with convenience accessors and merge support
    for aggregating across components or sweep runs.  Hot call sites may
    batch increments in plain ints of their own (:meth:`absorb`): such a
    set is exact *when read through* what flushes the owner first —
    ``MedeaSystem.collect_stats``, the telemetry registry's ``flush=``
    hook, ``telemetry.attribution``, ``flush_op_stats`` — not at every
    cycle or sleep.  The MPMMU's per-flit counters are exact through the
    same readers (``MpmmuNode.flush_stats`` copies what its FIFOs count).
    """

    __slots__ = ("name", "_counters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: dict[str, int] = {}

    def inc(self, key: str, amount: int = 1) -> None:
        counters = self._counters
        counters[key] = counters.get(key, 0) + amount

    def absorb(self, owner: object, batched: tuple[tuple[str, str], ...]) -> None:
        """Fold ``owner``'s batched plain-int counters — ``(attribute,
        key)`` pairs — into this set and zero them."""
        for attribute, key in batched:
            amount = getattr(owner, attribute)
            if amount:
                self.inc(key, amount)
                setattr(owner, attribute, 0)

    def set_max(self, key: str, value: int) -> None:
        if value > self._counters.get(key, 0):
            self._counters[key] = value

    def get(self, key: str, default: int = 0) -> int:
        return self._counters.get(key, default)

    def __getitem__(self, key: str) -> int:
        return self._counters.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def merge(self, other: "CounterSet") -> None:
        """Add every counter of ``other`` into this set."""
        for key, value in other._counters.items():
            self.inc(key, value)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CounterSet {self.name} {self._counters}>"


class LatencyStat:
    """Streaming min/max/mean/histogram for per-event latencies.

    Used for flit network latency and memory-transaction round trips.  The
    histogram uses fixed power-of-two buckets so recording stays O(1) and
    allocation-free.
    """

    #: Bucket upper bounds (inclusive); the last bucket is open-ended.
    BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets = [0] * (len(self.BOUNDS) + 1)

    def record(self, value: int) -> None:
        # O(1)-ish and allocation-free: bisect over the inclusive bounds
        # lands values past the last bound in the open-ended bucket.
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(self.BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile_bound(self, fraction: float) -> int | None:
        """Upper bucket bound containing the given fraction of samples.

        Returns ``None`` when empty.  This is a bucketed approximation —
        adequate for the "sporadic high latency flits" observation the
        paper makes about deflection routing.
        """
        if not self.count:
            return None
        threshold = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= threshold:
                if index < len(self.BOUNDS):
                    return self.BOUNDS[index]
                return self.max
        return self.max

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p99_bound": self.percentile_bound(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LatencyStat {self.name} n={self.count} mean={self.mean:.1f} "
            f"max={self.max}>"
        )
