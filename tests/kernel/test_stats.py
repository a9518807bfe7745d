"""Counter and latency statistics."""

from __future__ import annotations

from bisect import bisect_left
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.stats import CounterSet, LatencyStat


def test_counter_increments():
    counters = CounterSet("c")
    counters.inc("hits")
    counters.inc("hits", 4)
    assert counters["hits"] == 5


def test_counter_missing_key_is_zero():
    counters = CounterSet("c")
    assert counters["nothing"] == 0
    assert counters.get("nothing", 7) == 7


def test_a_batch_is_added_in_on_read_and_a_zero_adds_no_key():
    owner = SimpleNamespace(_n_depth=0)
    counters = CounterSet("c")
    counters.batch(owner, (("_n_depth", "depth"),))
    assert "depth" not in counters  # 0 is the implicit default already
    owner._n_depth = 2
    assert counters["depth"] == 2 and owner._n_depth == 0
    assert counters.as_dict() == {"depth": 2}


def test_counter_merge():
    left = CounterSet("l")
    right = CounterSet("r")
    left.inc("a", 2)
    right.inc("a", 3)
    right.inc("b", 1)
    left.merge(right)
    assert left["a"] == 5
    assert left["b"] == 1


def test_counter_contains_and_dict():
    counters = CounterSet("c")
    counters.inc("x")
    assert "x" in counters
    assert "y" not in counters
    assert counters.as_dict() == {"x": 1}


def test_latency_mean_min_max():
    stat = LatencyStat()
    for value in (2, 4, 12):
        stat.record(value)
    assert stat.count == 3
    assert stat.min == 2
    assert stat.max == 12
    assert stat.mean == 6.0


def test_latency_empty_mean_is_zero():
    stat = LatencyStat()
    assert stat.mean == 0.0
    assert stat.percentile_bound(0.99) is None


def test_latency_percentile_bound_brackets_tail():
    stat = LatencyStat()
    for __ in range(99):
        stat.record(3)
    stat.record(1000)
    p99 = stat.percentile_bound(0.99)
    assert p99 is not None
    assert p99 <= 4  # 99% of samples are tiny
    assert stat.percentile_bound(1.0) >= 1000 or stat.max == 1000


def test_counter_merge_is_additive_per_key_and_repeatable():
    left = CounterSet("l")
    right = CounterSet("r")
    left.inc("a", 2)
    right.inc("a", 3)
    left.merge(right)
    left.merge(right)
    assert left["a"] == 8
    # Merging never mutates the source set.
    assert right["a"] == 3


def test_counter_merge_empty_is_identity():
    left = CounterSet("l")
    left.inc("a", 2)
    left.merge(CounterSet("empty"))
    assert left.as_dict() == {"a": 2}


def test_latency_percentile_bound_single_sample():
    stat = LatencyStat()
    stat.record(5)
    # One sample: every fraction brackets it (5 lands in the (4, 8] bucket).
    assert stat.percentile_bound(0.01) == 8
    assert stat.percentile_bound(1.0) == 8


def test_latency_percentile_bound_exact_bucket_boundaries():
    stat = LatencyStat()
    stat.record(1)  # first closed bucket
    stat.record(2)  # second closed bucket
    assert stat.percentile_bound(0.5) == 1
    assert stat.percentile_bound(1.0) == 2


def test_latency_percentile_bound_open_bucket_returns_max():
    stat = LatencyStat()
    for __ in range(9):
        stat.record(1)
    stat.record(123_456)  # far past the last bound: open-ended bucket
    assert stat.percentile_bound(1.0) == 123_456
    assert stat.percentile_bound(0.9) == 1


def test_latency_percentile_bound_zero_fraction():
    stat = LatencyStat()
    stat.record(7)
    stat.record(700)
    # fraction 0: the threshold is 0 samples, so the very first bucket
    # (bound 1) satisfies it even though it is empty.
    assert stat.percentile_bound(0.0) == 1


def test_latency_bucket_overflow_goes_to_open_bucket():
    stat = LatencyStat()
    stat.record(10_000_000)
    assert stat.buckets[-1] == 1


def test_latency_as_dict():
    stat = LatencyStat("lat")
    stat.record(5)
    data = stat.as_dict()
    assert data["name"] == "lat"
    assert data["count"] == 1
    assert data["max"] == 5


def test_latency_records_boundary_values():
    stat = LatencyStat()
    for bound in LatencyStat.BOUNDS:
        stat.record(bound)
    assert stat.count == len(LatencyStat.BOUNDS)
    # Each boundary value lands in its own (closed) bucket.
    assert all(bucket == 1 for bucket in stat.buckets[:-1])


class _RecordOracle:
    """``LatencyStat`` as it kept its fields before they were derived from
    the histogram: the old ``record`` body, per record."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = [0] * (len(LatencyStat.BOUNDS) + 1)

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(LatencyStat.BOUNDS, value)] += 1


_LATENCIES = st.lists(st.one_of(
    st.integers(0, 20_000),
    st.sampled_from([bound + delta for bound in LatencyStat.BOUNDS
                     for delta in (-1, 0, 1)]),
), max_size=60)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(values=_LATENCIES)
def test_derived_latency_fields_equal_a_per_record_oracle(values):
    stat, oracle = LatencyStat("lat"), _RecordOracle()
    for value in values:
        stat.record(value)
        oracle.record(value)
    assert (stat.count, stat.total, stat.min, stat.max, stat.buckets) == (
        oracle.count, oracle.total, oracle.min, oracle.max, oracle.buckets)
    mean = oracle.total / oracle.count if oracle.count else 0.0
    assert stat.mean == mean
    bounds = {}
    for fraction in (0, 0.5, 0.99, 1):
        bound = None
        if oracle.count:
            seen, threshold = 0, fraction * oracle.count
            for index, bucket in enumerate(oracle.buckets):
                seen += bucket
                if seen >= threshold:
                    bound = (LatencyStat.BOUNDS[index]
                             if index < len(LatencyStat.BOUNDS) else oracle.max)
                    break
        bounds[fraction] = bound
        assert stat.percentile_bound(fraction) == bound
    assert stat.as_dict() == {
        "name": "lat", "count": oracle.count, "mean": mean,
        "min": oracle.min, "max": oracle.max, "p99_bound": bounds[0.99],
    }
