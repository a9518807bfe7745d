"""A 32-value ``hw`` allreduce on the 8-worker mesh never finishes.

Found by hand while sweeping vector lengths; verified at ``d5f33bc`` and
again on the tree that added this file.  24 values finish in 351 cycles;
32 values on the folded torus and on a chiplet package finish; on the
mesh the run spins to ``max_cycles`` (0.55 s of host time) — a multicast
livelock of the family Berejuck's survey catalogues (PAPERS.md), not a
deadlock: the fabric stays active, so no ``DeadlockError`` fires.

The watchdog's report, with ``watchdog_cycles=5_000`` armed on ``CONFIG``
(``dataclasses.replace``); unarmed, the run dies of ``max_cycles`` with a
report of the same form, less the ``moved`` section:

    no progress for 5000 cycles (watchdog fired at cycle 10000): no flit entered or left the network and no core ran since the last check
      cycle ledger: rank 0 barrier_spin 9758cyc (97%), rank 1 barrier_spin 9614cyc (96%), rank 2 wait_msg 9905cyc (99%), rank 3 wait_msg 9972cyc (99%), rank 4 barrier_spin 9620cyc (96%), rank 5 wait_msg 9966cyc (99%), rank 6 wait_msg 9895cyc (98%), rank 7 wait_msg 9962cyc (99%)
      noc: work={5}
      mpmmu: state=idle, after_state=idle
      pe[0]: state=wait_req, last_op=['recvreq']
      pe[1]: state=wait_req, last_op=['recvreq']
      pe[2]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 64]
      pe[3]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 64]
      pe[4]: state=wait_req, last_op=['recvreq']
      pe[5]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 64]
      pe[6]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 64]
      pe[7]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 64]
      watchdog: last=[635, 1013, 3]
      moved since the last check:
        noc.stats.deflections: 4739 → 9739
        noc.regs[5][0].hops: 4672 → 9672
        noc.regs[5][0].deflections: 2334 → 4834
        noc.regs[5][2].hops: 4674 → 9674
        noc.regs[5][3].hops: 4670 → 9670
        noc.regs[5][3].deflections: 2333 → 4833

The five ``wait_msg`` tiles hold the root's 64-word broadcast up to slot
59 (61 on ``pe[7]``) and want 64.  What still moves is the same three
flits from node 1 as in ``test_mesh_hw_bcast_livelock.py`` (``mask=0x100``
seq 13 and 15, ``mask=0xd8`` seq 11), stepping between node 5 (even
cycles, as here) and nodes 2, 4 and 8 (odd cycles).
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
