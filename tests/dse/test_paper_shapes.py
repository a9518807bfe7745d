"""The paper's shapes, held on the quick-scale reports tier-1 already makes.

The report pins compare bytes, so they hold until the next regeneration
and say nothing about it; these predicates are what a regenerated pin must
still satisfy.  They read ``inline_reports`` (``conftest.py``): no
simulation of their own.  Each came from a pytest-benchmark wrapper under
``benchmarks/`` that no CI job ran (the ablations' last); ROADMAP item 5
turns them into a claims table.
"""

from __future__ import annotations

import pytest


def cache_kb(label: str) -> int:
    """``8kB$WB`` -> 8 (the execution-time series are keyed like that)."""
    return int(label.split("kB")[0])


def test_fig6_write_through_never_beats_write_back(inline_reports):
    series = inline_reports["fig6"].series
    pairs = [label for label in series if label.endswith("WT")]
    assert pairs
    for label in pairs:
        write_back = dict(series[label.replace("WT", "WB")])
        for cores, cycles in series[label]:
            assert cycles >= write_back[cores], (label, cores)


def test_fig6_more_cores_never_hurt_at_the_largest_cache(inline_reports):
    series = inline_reports["fig6"].series
    largest = max((label for label in series if label.endswith("WB")),
                  key=cache_kb)
    curve = sorted(series[largest])
    assert curve[-1][1] <= curve[0][1]


def test_fig8_smallest_cache_curve_is_at_or_above_the_largest(inline_reports):
    # Paper: scalability is hampered when caches are too small.
    series = inline_reports["fig8"].series
    smallest = dict(series[min(series, key=cache_kb)])
    largest = dict(series[max(series, key=cache_kb)])
    assert smallest.keys() == largest.keys()
    for cores, cycles in smallest.items():
        assert cycles >= largest[cores], cores


@pytest.mark.parametrize("name", ["fig7", "fig9"])
def test_speedup_area_front_is_monotone_and_the_kill_rule_prunes_it(
    name, inline_reports
):
    series = inline_reports[name].series
    front, optimal = series["pareto"], series["kill-rule"]
    assert optimal  # the staircase exists
    assert set(optimal) <= set(front)
    # More area on the front means more speedup.
    assert [area for area, __ in front] == sorted(area for area, __ in front)
    assert [gain for __, gain in front] == sorted(gain for __, gain in front)
    kept = [gain for __, gain in optimal]
    assert kept == sorted(kept) and kept[-1] > 1.0


def test_compare_hybrid_win_grows_and_synchronization_carries_it(
    inline_reports
):
    series = inline_reports["compare"].series
    sm_over_full = dict(series["sm_over_full"])
    sm_over_sync = dict(series["sm_over_sync"])
    sync_over_full = dict(series["sync_over_full"])
    low, high = min(sm_over_full), max(sm_over_full)
    # Paper: ~2x at 6 cores / 16 kB, growing with the core count.
    assert sm_over_full[high] > sm_over_full[low]
    assert sm_over_full[high] >= 2.0
    # The sync-only hybrid recovers a large share (paper: 2x-2.8x) ...
    assert sm_over_sync[high] >= 1.5
    # ... and stays close to the full hybrid at low core counts (2-20%).
    assert sync_over_full[low] <= 1.25
    # Synchronization's share of the full win (paper: >= 56% at the top).
    share = (sm_over_sync[high] - 1.0) / (sm_over_full[high] - 1.0)
    assert share >= 0.4


def test_noc_delivers_everything_and_outliers_stay_sporadic(inline_reports):
    rows = inline_reports["noc"].rows
    assert rows
    # Livelock freedom: every run delivered everything.
    assert all(row[-1] == "yes" for row in rows)
    # Section II-A's sporadic high-latency flits: under load the worst
    # flit takes more than twice the mean.
    loaded = [row for row in rows if float(row[1]) >= 0.4]
    assert loaded
    for row in loaded:
        mean_latency, max_latency = float(row[2]), int(row[3])
        assert max_latency > 2 * mean_latency, row


@pytest.fixture(scope="module")
def ablation(inline_reports):
    """(group, variant) -> cycles per iteration of the ablations report."""
    return {(group, variant): cycles
            for group, variant, cycles in inline_reports["ablations"].rows}


def test_ablation_deeper_write_buffer_never_slower(ablation):
    assert (ablation["write_buffer", "depth=8"]
            <= ablation["write_buffer", "depth=1"])


def test_ablation_second_ejection_port_within_five_percent(ablation):
    assert ablation["eject", "eject=2"] <= ablation["eject", "eject=1"] * 1.05


def test_ablation_locked_shared_writes_cost_more(ablation):
    # Section II-C: lock/flush/unlock is the price of safe shared writes.
    assert (ablation["write_protocol", "lock/flush/unlock"]
            > ablation["write_protocol", "barrier-ordered"])


def test_ablation_multiply_high_is_faster(ablation):
    assert ablation["mul_high", "mul-high"] < ablation["mul_high", "16/32-bit mul"]
