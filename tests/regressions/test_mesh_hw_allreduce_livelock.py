"""A 32-value ``hw`` allreduce on the 8-worker mesh never finishes.

Found by hand while sweeping vector lengths; verified at ``d5f33bc`` and
again on the tree that added this file.  24 values finish in 351 cycles;
32 values on the folded torus and on a chiplet package finish; on the
mesh the run spins to ``max_cycles`` (0.55 s of host time) — a multicast
livelock of the family Berejuck's survey catalogues (PAPERS.md), not a
deadlock: the fabric stays active, so no ``DeadlockError`` fires.

The hang report at cycle 100 000 (``describe_state`` per tile):

    pe[0] wait_req, ready_at=410, last_op=('recvreq',)     (in the end barrier)
    pe[1] wait_req, ready_at=404, last_op=('recvreq',)
    pe[2] wait_msg, ready_at=95,  last_op=('mrecv', 1, 64)
    pe[3] wait_msg, ready_at=28,  last_op=('mrecv', 1, 64)
    pe[4] wait_req, ready_at=405, last_op=('recvreq',)
    pe[5] wait_msg, ready_at=34,  last_op=('mrecv', 1, 64)
    pe[6] wait_msg, ready_at=105, last_op=('mrecv', 1, 64)
    pe[7] wait_msg, ready_at=38,  last_op=('mrecv', 1, 64)

Every bridge idle, every DMA engine drained, no TIE send in flight.  The
five ``wait_msg`` tiles hold the root's 64-word broadcast up to slot 59
(61 on ``pe[7]``) and want 64; the missing flits are still in the
network, three multicast flits from node 1 that deflect for ever —

    reg[2][2]  MULTICAST 1->mask=0x100 seq=13
    reg[4][1]  MULTICAST 1->mask=0x100 seq=15
    reg[8][0]  MULTICAST 1->mask=0xd8  seq=11

— with ``noc.deflections`` 99 739 against ``flit_hops`` 2 694 and
``eject_overflows`` 64.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.errors import SimulationError
from repro.system.config import SystemConfig

CONFIG = SystemConfig(n_workers=8, topology_kind="mesh", dma_tx_queue_depth=4)
PARAMS = CollectiveBenchParams(
    collective="allreduce", model="empi", algorithm="hw", n_values=32,
    repeats=1,
)
MAX_CYCLES = 100_000


@pytest.mark.xfail(
    strict=True, raises=SimulationError,
    reason="multicast livelock: max_cycles=100000 exceeded",
)
def test_mesh_hw_allreduce_of_32_values_finishes():
    result = run_collective_bench(CONFIG, PARAMS, max_cycles=MAX_CYCLES)
    assert result.validated
    assert result.total_cycles < 1_000  # 24 values: 351
