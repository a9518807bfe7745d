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

The watchdog's report, with ``watchdog_cycles=5_000`` armed on ``CONFIG``
(``dataclasses.replace``); unarmed, the run dies of ``max_cycles`` with a
report of the same form, less the ``moved`` section:

    no progress for 5000 cycles (watchdog fired at cycle 10000): no flit entered or left the network and no core ran since the last check
      cycle ledger: rank 0 barrier_spin 9964cyc (99%), rank 1 barrier_spin 9854cyc (98%), rank 2 wait_msg 9941cyc (99%), rank 3 wait_msg 9940cyc (99%), rank 4 barrier_spin 9860cyc (98%), rank 5 wait_msg 9934cyc (99%), rank 6 wait_msg 9933cyc (99%), rank 7 wait_msg 9930cyc (99%)
      noc: work={5}
      mpmmu: state=idle, after_state=idle
      pe[0]: state=wait_req, last_op=['recvreq']
      pe[1]: state=wait_req, last_op=['recvreq']
      pe[2]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 32]
      pe[3]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 32]
      pe[4]: state=wait_req, last_op=['recvreq']
      pe[5]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 32]
      pe[6]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 32]
      pe[7]: state=wait_msg, wait_msg=[…], last_op=['mrecv', 1, 32]
      watchdog: last=[131, 509, 3]
      moved since the last check:
        noc.stats.deflections: 4947 → 9947
        noc.regs[5][0].hops: 4880 → 9880
        noc.regs[5][0].deflections: 2438 → 4938
        noc.regs[5][2].hops: 4882 → 9882
        noc.regs[5][3].hops: 4878 → 9878
        noc.regs[5][3].deflections: 2437 → 4937

The five ``wait_msg`` tiles hold the root's second 32-word broadcast up
to slot 59 (61 on ``pe[7]``) and want 64.  What still moves is three
flits from node 1, two one-member multicasts (``mask=0x100``, seq 13 and
15) and a ``mask=0xd8`` one (seq 11), between node 5 (even cycles, as
here) and ``regs[2][2]``, ``regs[4][1]``, ``regs[8][0]`` (odd cycles).
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
