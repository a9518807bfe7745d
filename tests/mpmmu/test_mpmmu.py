"""MPMMU behaviour through full-system runs with tiny programs."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.mem.values import float_to_words, words_to_float
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.conftest import run_programs


def one_worker(**overrides) -> SystemConfig:
    return SystemConfig(n_workers=1, cache_size_kb=2, **overrides)


def test_single_read_write_round_trip(tiny_config):
    seen = {}

    def writer(ctx):
        yield ("ustore", ctx.shared_base + 8, 1234)

    def reader(ctx):
        yield from ctx.empi.barrier()
        value = yield ("uload", ctx.shared_base + 8)
        seen["value"] = value

    def writer_with_barrier(ctx):
        yield ("ustore", ctx.shared_base + 8, 1234)
        yield ("fence",)
        yield from ctx.empi.barrier()

    system = run_programs(tiny_config, writer_with_barrier, reader)
    assert seen["value"] == 1234
    assert system.mpmmu.stats["served_single_write"] == 1
    assert system.mpmmu.stats["served_single_read"] == 1
    __ = writer


def test_block_transactions_via_cache_miss():
    def program(ctx):
        base = ctx.private_base
        # Write a full line (write-allocate -> block read), then force a
        # conflicting refill to evict it dirty (block write), then read
        # it back (another block read).
        yield ctx.store(base, 11)
        cache_bytes = 2 * 1024
        conflicting = base + 2 * cache_bytes
        yield ctx.store(conflicting, 22)  # same set, different tag
        yield ctx.store(conflicting + cache_bytes, 33)  # evicts one of them
        value = yield ctx.load(base)
        assert value == 11

    system = run_programs(one_worker(cache_assoc=2), program)
    assert system.mpmmu.stats["served_block_read"] >= 3
    assert system.mpmmu.stats["served_block_write"] >= 1
    assert system.ddr.store.read_word(system.map.private_base(0)) in (0, 11)


def test_mpmmu_cache_accelerates_repeat_reads():
    def program(ctx):
        for __ in range(4):
            yield ("uload", ctx.shared_base)

    system = run_programs(one_worker(), program)
    cache_stats = system.mpmmu.cache.stats
    assert cache_stats["read_misses"] == 1
    assert cache_stats["read_hits"] == 3


def test_lock_grant_and_contention(tiny_config):
    order = []

    def contender(ctx):
        lock_addr = ctx.shared_base + 16
        yield from ctx.empi.barrier()
        yield ("lock", lock_addr)
        order.append(("acquired", ctx.rank))
        yield ("compute", 200)
        yield ("unlock", lock_addr)
        order.append(("released", ctx.rank))

    system = run_programs(tiny_config, contender, contender)
    kinds = [kind for kind, __ in order]
    assert kinds == ["acquired", "released", "acquired", "released"]
    assert system.mpmmu.locks.stats["acquisitions"] == 2
    # The loser retried at least once.
    retries = sum(node.stats["lock_retries"] for node in system.nodes)
    assert retries >= 1


def test_unlock_by_wrong_owner_detected(tiny_config):
    def locker(ctx):
        yield ("lock", ctx.shared_base)
        yield from ctx.empi.barrier()
        yield from ctx.empi.barrier()

    def bad_unlocker(ctx):
        yield from ctx.empi.barrier()
        yield ("unlock", ctx.shared_base)
        yield from ctx.empi.barrier()

    with pytest.raises(Exception):  # surfaces as a ProtocolError
        run_programs(tiny_config, locker, bad_unlocker)


def test_write_protocol_commits_all_words():
    value = 3.14159

    def program(ctx):
        base = ctx.private_base
        low, high = float_to_words(value)
        yield ctx.store(base, low)
        yield ctx.store(base + 4, high)
        yield ("flush", base)
        yield ("fence",)

    system = run_programs(one_worker(), program)
    base = system.map.private_base(0)
    low = system.ddr.store.read_word(base)
    high = system.ddr.store.read_word(base + 4)
    assert words_to_float(low, high) == value


def test_mpmmu_is_slave_only():
    """The MPMMU never initiates traffic: without requests it stays idle."""
    def program(ctx):
        yield ("compute", 100)

    system = run_programs(one_worker(), program)
    assert system.mpmmu.stats.get("requests_received", 0) == 0
    assert system.mpmmu.idle


def test_request_fifo_depth_is_worker_count():
    system = MedeaSystem(SystemConfig(n_workers=5))
    assert system.mpmmu.req_fifo.capacity == 5


def test_busy_cycles_accumulate():
    def program(ctx):
        yield ("uload", ctx.shared_base)

    system = run_programs(one_worker(), program)
    assert system.mpmmu.stats["busy_cycles"] > 0


def test_deadlock_reported_not_hung():
    """A program that waits for a message nobody sends must raise."""
    def waiter(ctx):
        yield ctx.recv_words(0, 4)  # self-recv: nobody sends

    config = SystemConfig(n_workers=2, cache_size_kb=2)

    def sender_that_never_sends(ctx):
        yield ("compute", 10)

    with pytest.raises(DeadlockError) as exc:
        run_programs(config, sender_that_never_sends, waiter)
    assert "wait_msg" in str(exc.value)


def test_counters_are_exact_when_read_not_at_every_sleep():
    """The per-flit counters live in plain ints or the FIFOs' counts (the
    MPMMU's three, the fabric's three, an arbiter's grants) and a read
    folds them in — not each sleep.  Held, at three points in the middle
    of a write-through Jacobi run, to a twin that reads them after every
    step: a raw read equals ``collect_stats()``, the registry's totals and
    ``attribution``, and every read equals the twin's."""
    from repro.apps.jacobi.driver import JacobiParams, run_jacobi
    from repro.telemetry.attribution import occupancy_ledgers
    from repro.telemetry.config import TelemetryConfig

    config = SystemConfig(
        n_workers=3, cache_size_kb=2, cache_policy="wt",
        telemetry=TelemetryConfig(sample_interval=512, attribution=True),
    )

    def staged_reads(fold_every_step: bool) -> list:
        reads = []

        def observer(system):
            mpmmu, fabric, tile = system.mpmmu, system.fabric, system.nodes[0]
            if fold_every_step:
                for component, counters in ((mpmmu, mpmmu.stats),
                                            (fabric, fabric.stats),
                                            (tile, tile.arbiter.stats)):
                    def folding_step(cycle, step=component.step,
                                     counters=counters):
                        step(cycle)
                        counters.as_dict()

                    component.step = folding_step
            run = system.run

            def staged_run(*args, **kwargs):
                for stop in (700, 1500, 2600):
                    system.sim.run(max_cycles=stop - system.cycle)
                    raw = {
                        "mpmmu": mpmmu.stats.as_dict(),
                        "noc": {key: fabric.stats[key] for key in (
                            "flits_injected", "flits_ejected", "flit_hops")},
                        "latency": fabric.latency.as_dict(),
                        "latency_total": fabric.latency.total,
                        "grants": tile.arbiter.stats.as_dict(),
                    }
                    stats = system.collect_stats()
                    totals = system.telemetry.totals()
                    reads.append((raw, stats, totals,
                                  occupancy_ledgers(system)["mpmmu"]))
                return run(*args, **kwargs)

            system.run = staged_run

        result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0),
                            observer=observer)
        assert result.validated
        return reads

    lazy, eager = staged_reads(False), staged_reads(True)
    assert lazy == eager
    for raw, stats, totals, ledger in lazy:
        assert raw["mpmmu"] == stats["mpmmu"]
        assert stats["mpmmu"]["requests_received"] == ledger["requests"] > 0
        assert {name: value for name, value in totals.items()
                if name.startswith("mpmmu.")} == {
            f"mpmmu.{key}": value for key, value in stats["mpmmu"].items()}
        noc = stats["noc"]
        assert raw["noc"] == {key: noc[key] for key in raw["noc"]}
        assert raw["noc"]["flits_ejected"] > 0
        assert {key: totals[f"noc.{key}"] for key in raw["noc"]} == raw["noc"]
        assert raw["latency"] == noc["latency"]
        assert (totals["noc.latency.count"], totals["noc.latency.total"]) == (
            raw["latency"]["count"], raw["latency_total"])
        assert raw["grants"]["flits_granted"] > 0
    assert lazy[0][1] != lazy[1][1] != lazy[2][1]  # three different moments
