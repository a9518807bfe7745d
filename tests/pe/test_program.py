"""Program context helpers."""

from __future__ import annotations

import pytest

from repro.errors import ProgramError
from repro.mem.memory_map import MemoryMap
from repro.mem.values import float_to_words
from repro.pe.costmodel import FpCostModel
from repro.pe.program import ProgramContext
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def make_ctx(rank: int = 0, n_workers: int = 2) -> ProgramContext:
    return ProgramContext(
        rank=rank,
        n_workers=n_workers,
        node_id=rank + 1,
        memory_map=MemoryMap(n_workers, shared_size=0x1000, private_size=0x1000),
        cost=FpCostModel(),
        rank_to_node={r: r + 1 for r in range(n_workers)},
    )


def drive(gen, responses):
    """Run a helper generator feeding canned responses; return ops + result."""
    ops = []
    result = None
    try:
        op = next(gen)
        while True:
            ops.append(op)
            op = gen.send(responses.pop(0) if responses else None)
    except StopIteration as stop:
        result = stop.value
    return ops, result


def test_address_properties():
    ctx = make_ctx(rank=1)
    assert ctx.shared_base == 0
    assert ctx.private_base == 0x2000
    assert ctx.node_of(0) == 1


def test_op_builders():
    ctx = make_ctx()
    assert ctx.compute(5) == ("compute", 5)
    assert ctx.load(0x10) == ("load", 0x10)
    assert ctx.store(0x10, 3) == ("store", 0x10, 3)
    assert ctx.note("x") == ("note", "x")
    assert ctx.fp_add() == ("compute", 19)
    assert ctx.fp_mul() == ("compute", 26)


def solo() -> SystemConfig:
    return SystemConfig(n_workers=1, cache_size_kb=2)


def test_load_double_combines_words(doubles):
    """One op; run, it reads the word at a and the word at a + 4 as one
    double, in one visit (8-aligned) or word by word (not)."""
    assert make_ctx().load_double(0x100) == ("load_double", 0x100)
    low, high = float_to_words(2.5)
    loaded = []

    def program(ctx):
        for addr in (ctx.private_base + 0x100, ctx.private_base + 0x10C):
            yield ctx.store(addr, low)
            yield ctx.store(addr + 4, high)
            loaded.append((yield ctx.load_double(addr)))

    run_programs(solo(), program)
    assert loaded == [2.5, 2.5]
    assert (len(doubles.fused), doubles.word_by_word) == (1, 1)


def test_store_double_emits_two_stores(doubles):
    """One op; run, it leaves the value's low word at a, its high word
    at a + 4."""
    assert make_ctx().store_double(0x100, -1.25) == (
        "store_double", 0x100, -1.25
    )
    loaded = []

    def program(ctx):
        for addr in (ctx.private_base + 0x100, ctx.private_base + 0x10C):
            yield ctx.store(addr, 0)  # the line is resident
            yield ctx.store_double(addr, -1.25)
            loaded.append(((yield ctx.load(addr)), (yield ctx.load(addr + 4))))

    run_programs(solo(), program)
    assert loaded == [float_to_words(-1.25)] * 2
    assert (len(doubles.fused), doubles.word_by_word) == (1, 1)


def test_a_double_op_is_yielded_not_delegated_to():
    """``yield from ctx.load_double(a)`` hands the interpreter the op's
    fields one by one, and the first is no operation."""
    def program(ctx):
        yield from ctx.load_double(ctx.private_base)

    with pytest.raises(ProgramError, match="unknown operation 'load_double'"):
        run_programs(solo(), program)


def test_uncached_double_helpers():
    ctx = make_ctx()
    low, high = float_to_words(7.0)
    ops, value = drive(ctx.uncached_load_double(0x20), [low, high])
    assert ops == [("uload", 0x20), ("uload", 0x24)]
    assert value == 7.0
    ops, __ = drive(ctx.uncached_store_double(0x20, 7.0), [None, None])
    assert ops[0][0] == "ustore"


def test_flush_range_covers_partial_lines():
    ctx = make_ctx()
    ops, __ = drive(ctx.flush_range(0x108, 24), [None] * 4)
    assert ops == [("flush", 0x100), ("flush", 0x110)]


def test_invalidate_range_line_aligned():
    ctx = make_ctx()
    ops, __ = drive(ctx.invalidate_range(0x100, 32), [None] * 4)
    assert ops == [("inval", 0x100), ("inval", 0x110)]


@pytest.mark.parametrize("helper", ["flush_range", "invalidate_range"])
@pytest.mark.parametrize("addr", [0x100, 0x104])
def test_an_empty_range_names_no_line(helper, addr):
    """Not even the line holding ``addr``: a DII of it could drop dirty
    data the program never named."""
    ops, __ = drive(getattr(make_ctx(), helper)(addr, 0), [])
    assert ops == []


@pytest.mark.parametrize("helper", ["flush_range", "invalidate_range"])
@pytest.mark.parametrize("addr", [0x100, 0x104])
def test_a_negative_range_is_refused(helper, addr):
    with pytest.raises(ProgramError, match="negative range length -8"):
        drive(getattr(make_ctx(), helper)(addr, -8), [])


def test_send_recv_words_resolve_rank_to_node():
    ctx = make_ctx(rank=0, n_workers=3)
    assert ctx.send_words(2, [1, 2]) == ("send", 3, [1, 2])
    assert ctx.recv_words(1, 4) == ("recv", 2, 4)


def test_send_doubles_packs_words():
    ctx = make_ctx()
    ops, __ = drive(ctx.send_doubles(1, [1.0]), [None])
    assert len(ops) == 1
    code, node, words = ops[0]
    assert code == "send"
    assert node == 2
    assert len(words) == 2


def test_recv_doubles_unpacks_words():
    ctx = make_ctx()
    low, high = float_to_words(3.5)
    gen = ctx.recv_doubles(1, 1)
    op = next(gen)
    assert op == ("recv", 2, 2)
    with pytest.raises(StopIteration) as stop:
        gen.send([low, high])
    assert stop.value.value == [3.5]
