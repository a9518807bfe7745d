"""MetricRegistry: delta sampling, timelines, overlap folding."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.empi.requests import (
    OverlapFold,
    mean_overlap_efficiency,
    overlap_stats,
)
from repro.kernel.stats import CounterSet, LatencyStat
from repro.kernel.trace import (
    MARK,
    OVERLAP_ENTER,
    OVERLAP_EXIT,
    PHASE_ENTER,
    REQUEST_DONE,
    REQUEST_POST,
    EventLog,
)
from repro.telemetry.registry import (
    MetricRegistry,
    TelemetrySampler,
    sampled_overlap_efficiency,
)


def test_sample_records_deltas_not_absolutes():
    registry = MetricRegistry()
    counters = CounterSet("c")
    registry.add_counters("tile0", counters)
    counters.inc("hits", 5)
    assert registry.sample(100) == {"tile0.hits": 5}
    counters.inc("hits", 2)
    assert registry.sample(200) == {"tile0.hits": 2}
    assert registry.total("tile0.hits") == 7


def test_sample_row_only_holds_changed_names():
    registry = MetricRegistry()
    counters = CounterSet("c")
    registry.add_counters("x", counters)
    counters.inc("moving")
    counters.inc("frozen")
    registry.sample(10)
    counters.inc("moving")
    row = registry.sample(20)
    assert row == {"x.moving": 1}  # sparse: frozen didn't move


def test_a_counter_fold_runs_before_the_provider_is_read():
    registry = MetricRegistry()
    counters = CounterSet("c")
    owner = SimpleNamespace(_n_ops=3)
    counters.batch(owner, (("_n_ops", "ops"),))
    registry.add_counters("core", counters)
    assert registry.sample(50) == {"core.ops": 3}
    assert owner._n_ops == 0


def test_timeline_reports_the_per_sample_curve():
    registry = MetricRegistry()
    counters = CounterSet("c")
    registry.add_counters("n", counters)
    counters.inc("a", 1)
    registry.sample(10)
    registry.sample(20)  # nothing moved
    counters.inc("a", 4)
    registry.sample(30)
    assert registry.timeline("n.a") == [(10, 1), (20, 0), (30, 4)]


def test_finalize_closes_the_timeline_once_per_cycle():
    registry = MetricRegistry()
    counters = CounterSet("c")
    registry.add_counters("n", counters)
    counters.inc("a", 2)
    registry.finalize(37)
    registry.finalize(37)  # a second collect_stats() at the same cycle
    assert registry.samples == [(37, {"n.a": 2})]
    assert registry.total("n.a") == 2
    registry.finalize(40)
    assert [cycle for cycle, __ in registry.samples] == [37, 40]


def test_add_latency_samples_count_and_total():
    registry = MetricRegistry()
    stat = LatencyStat()
    registry.add_latency("noc.latency", stat)
    stat.record(10)
    stat.record(20)
    row = registry.sample(5)
    assert row == {"noc.latency.count": 2, "noc.latency.total": 30}
    stat.record(4)
    row = registry.sample(6)
    # Per-interval mean latency falls straight out of the two deltas.
    assert row["noc.latency.total"] / row["noc.latency.count"] == 4


def test_describe_names_the_biggest_movers():
    registry = MetricRegistry()
    counters = CounterSet("c")
    registry.add_counters("t", counters)
    assert "no samples" in registry.describe()
    counters.inc("big", 100)
    counters.inc("small", 1)
    registry.sample(42)
    summary = registry.describe(top=1)
    assert "cycle 42" in summary
    assert "t.big" in summary and "t.small" not in summary


def test_as_dict_round_trips_through_json_shapes():
    registry = MetricRegistry(sample_interval=64)
    counters = CounterSet("c")
    registry.add_counters("t", counters)
    counters.inc("k", 2)
    registry.sample(64)
    data = registry.as_dict()
    assert data["sample_interval"] == 64
    assert data["samples"] == [{"cycle": 64, "deltas": {"t.k": 2}}]
    assert data["totals"] == {"t.k": 2}


RANK_TO_NODE = {0: 1, 1: 2, 2: 3}


def test_overlap_note_counters_fold_incrementally():
    log = EventLog()
    fold = OverlapFold(log, RANK_TO_NODE)
    assert fold.values()["inflight_cycles"] == 0
    log.emit(10, 1, REQUEST_POST, "halo")  # post + overlap enter arrive
    log.emit(20, 1, OVERLAP_ENTER)
    assert fold.values()["inflight_cycles"] == 10
    log.emit(50, 1, OVERLAP_EXIT)  # exit + done arrive later
    log.emit(60, 1, REQUEST_DONE, "halo")
    counts = fold.values()
    assert counts["inflight_cycles"] == counts["rank0.inflight_cycles"] == 50
    assert counts["overlap_region_cycles"] == 30
    assert counts["coexist_cycles"] == 30
    assert "rank1.inflight_cycles" not in counts
    # Re-reading without new events is a no-op.
    assert fold.values() == counts


#: One step of a random run: (rank, cycles since the previous event,
#: what the rank tries to do).  An exit/done with nothing open is
#: skipped when the log is built, so every sequence is well nested.
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(sorted(RANK_TO_NODE)),
        st.integers(0, 40),
        st.sampled_from([
            REQUEST_POST, REQUEST_DONE, OVERLAP_ENTER, OVERLAP_EXIT,
            MARK, PHASE_ENTER,
        ]),
    ),
    max_size=60,
)


@given(steps=_STEPS, sample_at=st.sets(st.integers(0, 60)))
def test_incremental_overlap_totals_equal_the_batch_fold(steps, sample_at):
    """Sampling the fold at arbitrary points of a run never changes what
    it adds up to: the per-rank totals equal the batch reduction of the
    finished log, and the sampled delta series sums to the same
    efficiency."""
    log = EventLog()
    fold = OverlapFold(log, RANK_TO_NODE)
    registry = MetricRegistry()
    registry.add_source("empi.overlap", fold.values)
    open_depth = {(rank, kind): 0 for rank in RANK_TO_NODE
                  for kind in (REQUEST_POST, OVERLAP_ENTER)}
    closes = {REQUEST_DONE: REQUEST_POST, OVERLAP_EXIT: OVERLAP_ENTER}
    cycle = 0
    for index, (rank, gap, kind) in enumerate(steps):
        cycle += gap
        if kind in closes:
            if not open_depth[rank, closes[kind]]:
                continue
            open_depth[rank, closes[kind]] -= 1
        elif (rank, kind) in open_depth:
            open_depth[rank, kind] += 1
        log.emit(cycle, RANK_TO_NODE[rank], kind, "k")
        if index in sample_at:
            registry.sample(cycle)
    registry.sample(cycle + 1)
    batch = overlap_stats(log, RANK_TO_NODE)
    assert fold.advance() == batch
    totals = fold.values()
    for name in ("inflight_cycles", "overlap_region_cycles", "coexist_cycles"):
        assert totals[name] == sum(
            getattr(entry, name) for entry in batch.values()
        )
        assert registry.total(f"empi.overlap.{name}") == totals[name]
    assert sampled_overlap_efficiency(registry) == mean_overlap_efficiency(
        batch
    )


def test_sampled_overlap_efficiency_sums_the_delta_series():
    registry = MetricRegistry()
    log = EventLog()
    registry.add_source(
        "empi.overlap", OverlapFold(log, RANK_TO_NODE).values
    )
    log.emit(10, 1, REQUEST_POST, "halo")
    log.emit(20, 1, OVERLAP_ENTER)
    registry.sample(30)
    log.emit(50, 1, OVERLAP_EXIT)
    log.emit(60, 1, REQUEST_DONE, "halo")
    log.emit(70, 2, MARK, "solve_start")  # other kinds are ignored
    registry.sample(100)
    # One rank active out of three: the aggregate is a cycle ratio, so
    # idle ranks contribute to neither side of it.
    assert registry.timeline("empi.overlap.inflight_cycles") == [
        (30, 10), (100, 40)
    ]
    assert sampled_overlap_efficiency(registry) == pytest.approx(30 / 50)


def test_sampled_overlap_efficiency_empty_registry_is_zero():
    assert sampled_overlap_efficiency(MetricRegistry()) == 0.0


def test_sampler_component_snapshots_on_its_cadence():
    from repro.kernel.simulator import Simulator

    registry = MetricRegistry(sample_interval=10)
    counters = CounterSet("c")
    registry.add_counters("t", counters)
    counters.inc("k")
    sim = Simulator()
    sampler = TelemetrySampler(registry)
    sim.register(sampler)
    sampler.wake()
    sim.run(max_cycles=35)
    assert [cycle for cycle, __ in registry.samples] == [0, 10, 20, 30]
