"""Token epochs: mod-256 wraparound and out-of-band stashing.

The eMPI runtime stamps every synchronization token with an 8-bit epoch
so back-to-back barriers cannot steal each other's tokens, and stashes
any token that arrives before its matcher is waiting.  These tests pin
both mechanisms down — at the unit level by driving the token-matching
generator directly, and end-to-end by running past the 256-barrier
wraparound point on the full machine.
"""

from __future__ import annotations

import pytest

from repro.empi.runtime import Empi, _decode, _encode, _Token
from repro.mem.memory_map import MemoryMap
from repro.pe.costmodel import FpCostModel
from repro.pe.program import ProgramContext
from repro.system.config import SystemConfig
from tests.conftest import run_programs


def _StubCtx() -> ProgramContext:
    """A context off the simulator: Empi reads its declared attributes."""
    return ProgramContext(
        rank=0, n_workers=2, node_id=1, memory_map=MemoryMap(2),
        cost=FpCostModel(), rank_to_node={0: 1, 1: 2},
    )


def drive(gen, replies):
    """Run a token-matching generator, feeding queued (src, word) replies.

    Returns (result, recvreq_count): the generator's return value and how
    many tokens it had to pull off the wire.
    """
    replies = list(replies)
    pulls = 0
    try:
        op = next(gen)
        while True:
            assert op == ("recvreq",)
            pulls += 1
            op = gen.send(replies.pop(0))
    except StopIteration as stop:
        return stop.value, pulls


# -- encoding ---------------------------------------------------------------


def test_encode_decode_round_trip():
    word = _encode(_Token.DISSEM, epoch=200, aux=7)
    assert _decode(word) == (int(_Token.DISSEM), 200, 7)


def test_epoch_field_wraps_mod_256():
    assert _decode(_encode(_Token.ARRIVE, 256))[1] == 0
    assert _decode(_encode(_Token.ARRIVE, 257))[1] == 1
    assert _decode(_encode(_Token.ARRIVE, 0x1FF))[1] == 0xFF


# -- unit-level matching ----------------------------------------------------


def test_matching_token_returns_immediately():
    empi = Empi(_StubCtx())
    result, pulls = drive(
        empi._recv_token(_Token.RELEASE, epoch=5, src_node=1),
        [(1, _encode(_Token.RELEASE, 5))],
    )
    assert result == (1, 0)
    assert pulls == 1
    assert empi._stash == []


def test_stranger_tokens_are_stashed_not_dropped():
    """Tokens for other epochs/sources park in the stash untouched."""
    empi = Empi(_StubCtx())
    strangers = [
        (2, _encode(_Token.ARRIVE, 6)),        # future epoch
        (1, _encode(_Token.DISSEM, 5, aux=1)),  # wrong opcode
        (2, _encode(_Token.RELEASE, 5)),        # wrong source
    ]
    result, pulls = drive(
        empi._recv_token(_Token.RELEASE, epoch=5, src_node=1),
        strangers + [(1, _encode(_Token.RELEASE, 5))],
    )
    assert result == (1, 0)
    assert pulls == 4
    assert len(empi._stash) == 3  # every stranger still waiting


def test_stashed_token_matched_without_touching_the_wire():
    """An out-of-band token stashed earlier satisfies a later wait."""
    empi = Empi(_StubCtx())
    # Epoch-6 token arrives while rank waits on epoch 5.
    drive(
        empi._recv_token(_Token.RELEASE, epoch=5, src_node=1),
        [(1, _encode(_Token.RELEASE, 6)), (1, _encode(_Token.RELEASE, 5))],
    )
    assert len(empi._stash) == 1
    # The epoch-6 wait must complete from the stash alone: zero pulls.
    result, pulls = drive(empi._recv_token(_Token.RELEASE, epoch=6), [])
    assert result == (1, 0)
    assert pulls == 0
    assert empi._stash == []


def test_wraparound_epoch_matches_mod_256():
    """Epoch 256 and epoch 0 are the same wire epoch."""
    empi = Empi(_StubCtx())
    result, pulls = drive(
        empi._recv_token(_Token.ARRIVE, epoch=256),
        [(1, _encode(_Token.ARRIVE, 0))],
    )
    assert result == (1, 0)
    assert pulls == 1


def test_aux_filter_matches_dissemination_rounds():
    empi = Empi(_StubCtx())
    result, pulls = drive(
        empi._recv_token(_Token.DISSEM, epoch=9, aux=2),
        [(1, _encode(_Token.DISSEM, 9, aux=0)),
         (1, _encode(_Token.DISSEM, 9, aux=2))],
    )
    assert result == (1, 2)
    assert pulls == 2
    assert empi._stash == [(1, int(_Token.DISSEM), 9, 0)]


# -- full-machine wraparound ------------------------------------------------


@pytest.mark.parametrize("algorithm", ["central", "dissemination"])
def test_300_barriers_cross_the_epoch_wraparound(algorithm):
    """Running past barrier 256 exercises the mod-256 epoch reuse on the
    real machine: stale-epoch tokens would wedge or misrelease ranks."""
    config = SystemConfig(n_workers=2, cache_size_kb=2,
                          empi_barrier=algorithm)
    done = []

    def program(ctx):
        for __ in range(300):
            yield from ctx.empi.barrier()
        done.append(ctx.rank)

    system = run_programs(config, program, program, max_cycles=5_000_000)
    assert sorted(done) == [0, 1]
    empi = system.contexts[0].empi
    assert empi.barriers == 300
    wrapped = (empi._epoch if algorithm == "central"
               else empi._dissem_epoch)
    assert wrapped == 300 % 256
