"""The state reader (``repro.kernel.state``) reads every field of a tile.

A tile keeps its own attributes in ``__slots__`` and the ``Component``
ones in its instance dict; a reader of only one of the two would drop
the other half and every differential built on it would compare less and
still pass.  The values below were read from the tile before it had
slots, when all 56 attributes lived in its dict.
"""

from __future__ import annotations

from repro.kernel.state import component_state, state_line
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

TILE_KEYS = {
    # Component's
    "name", "stats", "_order", "_bit",
    # ProcessorNode's
    "rank", "node_id", "ports", "cache", "write_buffer_depth",
    "write_buffer_stalls", "bridge", "arbiter", "scratchpad", "cost",
    "lock_retry_backoff", "recv_overhead", "reliability", "state",
    "_state_since", "_ready_at", "_send_value", "_pending_op", "_jobs",
    "_active_job", "_n_posted", "_wait_msg", "_pending_req_flit",
    "_last_op", "_rx_items", "_credit_items", "_line_bytes", "_write_back",
    "_shared_end", "_own_base", "_own_end", "_outer_send", "_n_compute",
    "_n_compute_cycles", "_n_load_hit", "_n_load_miss", "_n_store_wt",
    "_n_store_hit", "_n_store_miss", "_n_lmem", "_n_credit_wait",
    # component_state's own sections
    "tie", "dma",
}


def stalled_tile():
    """A write-through tile five cycles in: its write buffer is full."""
    def writer(ctx):
        for index in range(6):
            yield ctx.store(ctx.private_base + 4 * index, index)

    system = MedeaSystem(SystemConfig(n_workers=1, cache_size_kb=2,
                                      cache_policy="wt"))
    system.load_programs([writer])
    system.sim.run(until=lambda: system.cycle >= 5)
    return system.nodes[0]


def test_a_tile_state_keeps_every_field():
    state = component_state(stalled_tile())
    assert set(state) == TILE_KEYS
    assert state["stats"] == {"cycles_running": 4, "ops_store_wt": 4}
    assert state["name"] == "pe[0]" and state["_n_store_wt"] == 0


def test_a_tile_state_line_is_unchanged():
    assert state_line(stalled_tile()) == (
        "state=wait_wb, pending_op=['store', 1048592, 4], jobs=[…], "
        "last_op=['store', 1048592, 4]")
