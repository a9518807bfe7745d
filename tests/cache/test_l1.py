"""L1 cache state model: lookup, refill, eviction, DHWB/DII, policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1 import L1Cache, WritePolicy
from repro.errors import ConfigError, MemoryAccessError


def make_cache(size=1024, assoc=2, policy="wb") -> L1Cache:
    return L1Cache(size, line_bytes=16, assoc=assoc, policy=policy)


def test_geometry():
    cache = make_cache(size=2048, assoc=2)
    assert cache.words_per_line == 4
    assert cache.n_sets == 2048 // 16 // 2


def test_initial_lookup_misses():
    cache = make_cache()
    assert cache.lookup(0x100) is None
    assert cache.stats["read_misses"] == 1


def test_install_then_hit():
    cache = make_cache()
    cache.install(0x100, [1, 2, 3, 4])
    line = cache.lookup(0x100)
    assert line is not None
    assert cache.read_word(0x104) == 2
    assert cache.stats["read_hits"] == 1


@pytest.mark.parametrize("is_write", [False, True])
def test_a_two_word_lookup_is_two_lookups(is_write):
    """A hit leaves tick, LRU and counters as two lookups would; a miss
    not counted ahead of the clock leaves them as they were."""
    one, two = make_cache(), make_cache()
    for cache in (one, two):
        cache.install(0x100, [1, 2, 3, 4])
        cache.install(0x300, [5, 6, 7, 8])  # the same set, the other way
    key = "write_hits" if is_write else "read_hits"
    for cache, lookups, words in ((one, 2, 1), (two, 1, 2)):
        for __ in range(lookups):
            assert cache.lookup(0x108, is_write, False, words) is not None
        assert cache.lookup(0x500, is_write, False, words) is None
        assert cache.stats.as_dict() == {"refills": 2, key: 2}
    assert one._tick == two._tick == 4
    assert one.probe(0x100).lru == two.probe(0x100).lru == 4
    assert one.victim_for(0x500) == two.victim_for(0x500)


def test_line_addr_masks_offset():
    cache = make_cache()
    assert cache.line_addr(0x123) == 0x120


def test_write_word_sets_dirty():
    cache = make_cache()
    cache.install(0x40, [0, 0, 0, 0])
    cache.write_word(0x44, 7)
    line = cache.probe(0x40)
    assert line is not None and line.dirty
    assert cache.read_word(0x44) == 7


def test_write_word_clean_option():
    cache = make_cache()
    cache.install(0x40, [0, 0, 0, 0])
    cache.write_word(0x44, 7, mark_dirty=False)
    line = cache.probe(0x40)
    assert line is not None and not line.dirty


def test_read_write_absent_line_rejected():
    cache = make_cache()
    with pytest.raises(MemoryAccessError):
        cache.read_word(0x40)
    with pytest.raises(MemoryAccessError):
        cache.write_word(0x40, 1)


def test_probe_does_not_touch_stats_or_lru():
    cache = make_cache()
    cache.install(0x40, [1, 2, 3, 4])
    before = dict(cache.stats.as_dict())
    assert cache.probe(0x40) is not None
    assert cache.probe(0x999000) is None
    assert cache.stats.as_dict() == before


def test_lru_victim_selection():
    # Direct-mapped within a set of 2: fill both ways, touch one, evict.
    cache = make_cache(size=64, assoc=2)  # 2 sets of 2 lines
    set_stride = cache.n_sets * 16
    a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
    cache.install(a, [1] * 4)
    cache.install(b, [2] * 4)
    assert cache.lookup(a) is not None  # touch a: b becomes LRU
    needs_wb, victim_addr, __ = cache.victim_for(c)
    assert not needs_wb
    assert victim_addr == b


def test_victim_for_prefers_invalid_way():
    cache = make_cache(size=64, assoc=2)
    cache.install(0x0, [0] * 4)
    needs_wb, __, __ = cache.victim_for(cache.n_sets * 16)
    assert not needs_wb  # an invalid way exists


def test_lines_are_allocated_per_set_on_first_install():
    """An untouched set costs nothing: a 16 kB cache that served k distinct
    sets holds exactly k * assoc lines, however it was probed meanwhile."""
    cache = make_cache(size=16 * 1024, assoc=2)

    def lines():
        return sum(len(ways) for ways in cache._sets)

    assert lines() == 0
    assert cache.lookup(0x40) is None and cache.probe(0x40) is None
    assert cache.victim_for(0x40) == (False, 0, [])  # nothing to write back
    assert cache.writeback_line(0x40) is None
    assert not cache.invalidate_line(0x40)
    assert lines() == 0
    for k, set_index in enumerate((0, 5, 17, cache.n_sets - 1), start=1):
        addr = set_index * 16
        cache.install(addr, [k] * 4)
        cache.install(addr + cache.n_sets * 16, [k] * 4)  # same set, way 2
        cache.install(addr + 2 * cache.n_sets * 16, [k] * 4)  # an eviction
        assert lines() == k * cache.assoc
        assert cache.lookup(addr + 2 * cache.n_sets * 16).words == [k] * 4
    assert cache.stats["evictions_clean"] == 4


def test_dirty_eviction_returns_writeback_data():
    cache = make_cache(size=64, assoc=2)
    set_stride = cache.n_sets * 16
    a, b, c = 0x0, set_stride, 2 * set_stride
    cache.install(a, [1] * 4)
    cache.write_word(a, 9)
    cache.install(b, [2] * 4)
    cache.lookup(b)  # make `a` the LRU victim
    needs_wb, victim_addr, words = cache.victim_for(c)
    assert needs_wb
    assert victim_addr == a
    assert words == [9, 1, 1, 1]


def test_install_evicts_consistently_with_victim_for():
    cache = make_cache(size=64, assoc=2)
    set_stride = cache.n_sets * 16
    a, b, c = 0x0, set_stride, 2 * set_stride
    cache.install(a, [1] * 4)
    cache.install(b, [2] * 4)
    cache.lookup(a)
    __, victim_addr, __ = cache.victim_for(c)
    cache.install(c, [3] * 4)
    assert cache.probe(victim_addr) is None
    assert cache.probe(c) is not None


def test_refill_wrong_word_count_rejected():
    cache = make_cache()
    with pytest.raises(MemoryAccessError):
        cache.install(0x0, [1, 2])


def test_dhwb_returns_data_once_and_keeps_line_valid():
    cache = make_cache()
    cache.install(0x80, [1, 2, 3, 4])
    cache.write_word(0x80, 42)
    result = cache.writeback_line(0x84)  # any address in the line
    assert result == (0x80, [42, 2, 3, 4])
    line = cache.probe(0x80)
    assert line is not None and line.valid and not line.dirty
    assert cache.writeback_line(0x80) is None  # already clean


def test_dhwb_on_absent_line_is_noop():
    cache = make_cache()
    assert cache.writeback_line(0x40) is None


def test_dii_invalidates_without_writeback():
    cache = make_cache()
    cache.install(0x80, [1, 2, 3, 4])
    assert cache.invalidate_line(0x80)
    assert cache.probe(0x80) is None
    assert not cache.invalidate_line(0x80)


def test_dii_on_dirty_line_counts_data_loss():
    cache = make_cache()
    cache.install(0x80, [1, 2, 3, 4])
    cache.write_word(0x80, 9)
    cache.invalidate_line(0x80)
    assert cache.stats["dii_dirty_dropped"] == 1


def test_policy_parse():
    assert WritePolicy.parse("wb") is WritePolicy.WRITE_BACK
    assert WritePolicy.parse("WT") is WritePolicy.WRITE_THROUGH
    assert WritePolicy.parse(WritePolicy.WRITE_BACK) is WritePolicy.WRITE_BACK
    with pytest.raises(ConfigError):
        WritePolicy.parse("writeback")


def test_geometry_validation():
    with pytest.raises(ConfigError):
        L1Cache(1000)  # not a multiple of line size
    with pytest.raises(ConfigError):
        L1Cache(1024, line_bytes=12)
    with pytest.raises(ConfigError):
        L1Cache(1024, assoc=3)  # 64 lines % 3 != 0


def test_hits_misses_aggregate_properties():
    cache = make_cache()
    cache.lookup(0x0)
    cache.install(0x0, [0] * 4)
    cache.lookup(0x0)
    cache.lookup(0x4, is_write=True)
    assert cache.misses == 1
    assert cache.hits == 2


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "flush", "inval"]),
            st.integers(0, 63),      # line index within 1 kB of addresses
            st.integers(0, 3),       # word within line
            st.integers(0, 0xFFFF),  # value
        ),
        max_size=200,
    )
)
def test_cache_matches_flat_memory_model(ops):
    """Miss/refill/evict/flush against a reference flat memory.

    Simulates the owning node's FSM: on a miss, write back the victim and
    refill from memory.  At every step the value read through the cache
    must equal the reference dict's value.
    """
    cache = make_cache(size=256, assoc=2)  # tiny: plenty of evictions
    memory: dict[int, int] = {}
    shadow: dict[int, int] = {}

    def mem_read_line(line_addr: int) -> list[int]:
        return [memory.get(line_addr + 4 * i, 0) for i in range(4)]

    def ensure_line(addr: int) -> None:
        if cache.probe(addr) is None:
            needs_wb, victim_addr, words = cache.victim_for(addr)
            if needs_wb:
                for index, word in enumerate(words):
                    memory[victim_addr + 4 * index] = word
            cache.install(cache.line_addr(addr), mem_read_line(cache.line_addr(addr)))

    for kind, line_index, word_index, value in ops:
        addr = line_index * 16 + word_index * 4
        if kind == "read":
            ensure_line(addr)
            assert cache.read_word(addr) == shadow.get(addr, 0)
        elif kind == "write":
            ensure_line(addr)
            cache.write_word(addr, value)
            shadow[addr] = value
        elif kind == "flush":
            result = cache.writeback_line(addr)
            if result is not None:
                line_addr, words = result
                for index, word in enumerate(words):
                    memory[line_addr + 4 * index] = word
        else:  # inval — only safe on clean lines; flush first
            result = cache.writeback_line(addr)
            if result is not None:
                line_addr, words = result
                for index, word in enumerate(words):
                    memory[line_addr + 4 * index] = word
            cache.invalidate_line(addr)
    # Final check: flush everything and compare the whole memory image.
    for addr in shadow:
        result = cache.writeback_line(addr)
        if result is not None:
            line_addr, words = result
            for index, word in enumerate(words):
                memory[line_addr + 4 * index] = word
    for addr, value in shadow.items():
        assert memory.get(addr, 0) == value
        line = cache.probe(addr)
        assert line is None or line.words[(addr % 16) >> 2] == value
