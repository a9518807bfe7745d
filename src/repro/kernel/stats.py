"""Lightweight statistics collection for simulator components."""

from __future__ import annotations

from bisect import bisect_left
from typing import Any


class CounterSet:
    """A named bag of integer counters, exact whenever it is read.

    Counting must stay cheap (it happens on hot per-cycle paths), so this is
    a thin wrapper over a dict with convenience accessors and merge support
    for aggregating across components or sweep runs.  A hot call site may
    count in plain ints of its owner instead (:meth:`batch`).  Every read
    first absorbs the batched ints — :meth:`get`, ``[]``, ``in``,
    :meth:`as_dict` and the source side of :meth:`merge` — so no reader
    has anything to remember; ``inc`` does not.
    """

    __slots__ = ("name", "_counters", "_owner", "_batched")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: dict[str, int] = {}
        self._owner: object = None
        self._batched: tuple[tuple[str, str], ...] = ()

    def batch(self, owner: object, batched: tuple[tuple[str, str], ...]) -> None:
        """Let ``owner`` count in plain ints of its own — ``(attribute,
        key)`` pairs — which every read adds in, in that order, and zeroes.
        (Held in slots, not a closure: a tile's build allocates no object
        more for the garbage collector to trace.)"""
        self._owner, self._batched = owner, batched

    def _read(self) -> dict[str, int]:
        owner = self._owner
        for attribute, key in self._batched:
            amount = getattr(owner, attribute)
            if amount:
                self.inc(key, amount)
                setattr(owner, attribute, 0)
        return self._counters

    def inc(self, key: str, amount: int = 1) -> None:
        counters = self._counters
        counters[key] = counters.get(key, 0) + amount

    def get(self, key: str, default: int = 0) -> int:
        return self._read().get(key, default)

    def __getitem__(self, key: str) -> int:
        return self._read().get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._read()

    def merge(self, other: "CounterSet") -> None:
        """Add every counter of ``other`` into this set."""
        for key, value in other._read().items():
            self.inc(key, value)

    def as_dict(self) -> dict[str, int]:
        return dict(self._read())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CounterSet {self.name} {self._counters}>"


class LatencyStat:
    """Min/max/mean/histogram of per-event latencies.

    Used for flit network latency and memory-transaction round trips.  It
    keeps one exact ``{latency: count}`` histogram, ``counts``, so
    recording is one dict update (the fabric's ``_eject`` makes it
    inline); everything else — ``count``, ``total``, ``min``, ``max``,
    ``buckets``, ``mean``, :meth:`percentile_bound` — is derived when read.
    ``buckets`` groups the histogram by the fixed bounds of ``BOUNDS``:
    powers of two to 1024, then 4096 and 16384, and an open-ended last one.
    """

    #: Bucket upper bounds (inclusive); the last bucket is open-ended.
    BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

    __slots__ = ("name", "counts")

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.counts: dict[int, int] = {}

    def record(self, value: int) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        return sum(value * n for value, n in self.counts.items())

    @property
    def min(self) -> int | None:
        return min(self.counts, default=None)

    @property
    def max(self) -> int | None:
        return max(self.counts, default=None)

    @property
    def buckets(self) -> list[int]:
        buckets = [0] * (len(self.BOUNDS) + 1)
        for value, n in self.counts.items():
            # Values past the last bound land in the open-ended bucket.
            buckets[bisect_left(self.BOUNDS, value)] += n
        return buckets

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile_bound(self, fraction: float) -> int | None:
        """Upper bucket bound containing the given fraction of samples.

        Returns ``None`` when empty.  This is a bucketed approximation —
        adequate for the "sporadic high latency flits" observation the
        paper makes about deflection routing.
        """
        count = self.count
        if not count:
            return None
        threshold = fraction * count
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
