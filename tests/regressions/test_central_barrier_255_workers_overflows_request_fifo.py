"""A 255-worker tree allreduce dies in its start barrier with a full
request FIFO.

Found by hand while re-measuring ROADMAP item 3 ("back-pressure, not
overflow"); verified at ``3fe7b1d`` and on the tree that added this file.
On the same config 127 workers validate in 3 959 cycles (0.3 s); 255 die
after 0.4-0.8 s with

    FifoFullError: tie[1].req: push on full FIFO (cap=64)

The ``central`` barrier funnels every other rank's ARRIVE token into
rank 0's request FIFO (tile 1), and request tokens are the one
message-path traffic class that is neither credit-gated nor stalled:
``TieInterface._accept_token`` pushes them unconditionally, so 254
arrivals overflow a 64-entry FIFO.  The hang never starts: the error is
raised on the cycle of the 65th push.

Item 3 decides which kind of defect this is.  If the fix is back-pressure
(a ``SendWindow`` on request tokens), this test passes unchanged.  If it
is a configuration ``SystemConfig`` refuses instead, the expected outcome
becomes ``pytest.raises(ConfigError, match=...)`` naming the tree or
hierarchical barrier, at build time.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.errors import FifoFullError
from repro.system.config import SystemConfig

CONFIG = SystemConfig(n_workers=255, cache_size_kb=16)
PARAMS = CollectiveBenchParams(
    collective="allreduce", model="empi", algorithm="tree", n_values=16,
    repeats=1,
)


@pytest.mark.xfail(
    strict=True, raises=FifoFullError,
    reason="central barrier: 254 ARRIVE tokens overflow tie[1].req (cap=64)",
)
def test_tree_allreduce_on_255_workers_validates():
    assert run_collective_bench(CONFIG, PARAMS).validated
