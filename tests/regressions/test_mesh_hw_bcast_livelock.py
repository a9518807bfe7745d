"""A 16-value ``hw`` broadcast, repeated twice, on the 8-worker mesh never
finishes.

Found while building the reference machine (``tests/reference_machine.py``),
on which it hangs alike: no skip's, so no ``first_divergence`` line.
Verified at ``31a0fb2`` and on the tree that added this file.  On the same
config one repeat finishes in 149 cycles; 4, 8 and 12 values with two
repeats in 100, 133 and 167.  A plain broadcast, no reduce leg, shorter
than the 32-value allreduce of ``test_mesh_hw_allreduce_livelock.py`` and
hung the same way: the multicast livelock family of Berejuck's survey
(PAPERS.md), the fabric active, so no ``DeadlockError`` fires.

The hang report at cycle 50 000 (``describe_state`` per tile):

    pe[0] wait_req, ready_at=170, last_op=('recvreq',)     (in the end barrier)
    pe[1] wait_req, ready_at=164, last_op=('recvreq',)
    pe[2] wait_msg, ready_at=114, last_op=('mrecv', 1, 32)
    pe[3] wait_msg, ready_at=113, last_op=('mrecv', 1, 32)
    pe[4] wait_req, ready_at=165, last_op=('recvreq',)
    pe[5] wait_msg, ready_at=115, last_op=('mrecv', 1, 32)
    pe[6] wait_msg, ready_at=114, last_op=('mrecv', 1, 32)
    pe[7] wait_msg, ready_at=113, last_op=('mrecv', 1, 32)

Every bridge idle, every DMA engine drained (the root's sent its two
descriptors, 64 flits), no TIE send in flight.  The five ``wait_msg``
tiles hold the root's second 32-word broadcast up to slot 59 (61 on
``pe[7]``, which also lacks 63) and want 64; the missing flits are still
in the network, three multicast flits from node 1 —

    reg[2][2]  MULTICAST 1->mask=0x100 seq=13  (slot 61; 24 938 deflections)
    reg[4][1]  MULTICAST 1->mask=0x100 seq=15  (slot 63; 24 937 deflections)
    reg[8][0]  MULTICAST 1->mask=0xd8  seq=11  (slot 59; 0 deflections)

— each about 49 880 hops old, with ``noc.deflections`` 49 947 against
``flit_hops`` 1 830 and ``eject_overflows`` 64.
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
    collective="bcast", model="empi", algorithm="hw", n_values=16,
    repeats=2,
)
MAX_CYCLES = 50_000


@pytest.mark.xfail(
    strict=True, raises=SimulationError,
    reason="multicast livelock: max_cycles=50000 exceeded",
)
def test_mesh_hw_bcast_of_16_values_twice_finishes():
    result = run_collective_bench(CONFIG, PARAMS, max_cycles=MAX_CYCLES)
    assert result.validated
    assert result.total_cycles < 1_000  # one repeat: 149
