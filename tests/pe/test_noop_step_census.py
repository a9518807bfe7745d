"""The no-op step census for tiles: which steps change nothing.

ROADMAP item 5's instrument, tests side — the tile's counterpart of
``test_no_mpmmu_step_of_a_write_through_jacobi_changes_nothing``
(``tests/mpmmu/test_flit_by_flit.py``).  A tile is fingerprinted around
every *full* step (one that runs the six phases; the quiet arm's steps
are counted by the ``quiet_steps`` fixture and cost one test each): core
state, ``_ready_at``, every queue, stream, send window, timer and
counter the tile owns.  Whether the tile is awake afterwards is left
out on purpose — a step that only goes back to sleep has changed nothing
the machine computes.

What is asserted is the ROADMAP's "no-op share < 10 %", stated over the
steps that are still paid for; the residue is printed by kind (``pytest
-s``) so that the next skip is proposed from a number.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.collective_bench import run_collective_bench
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.pe.processor import _BATCHED_COUNTERS, ProcessorNode
from repro.system.config import SystemConfig
from tests.system.test_quiet_step_differential import BENCHES

_JACOBI_WT = (
    SystemConfig(n_workers=4, cache_size_kb=2, cache_policy="wt"),
    JacobiParams(n=10, iterations=2, warmup=0),
)

#: name -> (driver, config, params, least share of tile steps the quiet
#: arm must take): the differential's quick lossy tree and its fault-free
#: chiplet package, and PR 21's write-through Jacobi.
RUNS = {
    "lossy_tree": (run_collective_bench, *BENCHES["lossy_tree"], 0.6),
    "chiplet_hier": (run_collective_bench, *BENCHES["chiplet_hier"], 0.0),
    "jacobi_wt": (run_jacobi, *_JACOBI_WT, 0.0),
}


def fifo(queue) -> tuple:
    return (queue.pushes, queue.pops)


def fingerprint(node: ProcessorNode) -> tuple:
    """Everything a step of ``node`` can change, but for ``node.active``
    (module docstring) and the quiet arm's own two bookkeeping integers."""
    tie, dma, agent, arbiter = node.tie, node.dma, node.reliability, node.arbiter
    return (
        node.state, node._ready_at, node._state_since, node._pending_op,
        node._send_value, node._wait_msg, node._pending_req_flit,
        len(node._jobs), node._active_job, node._n_posted,
        node.write_buffer_stalls, node.stats.as_dict(),
        [getattr(node, attribute) for attribute, __ in _BATCHED_COUNTERS],
        node.cache.stats.as_dict(),
        fifo(node.ports.eject.queue), node.ports.inject.pending,
        arbiter.n_pending, arbiter.stats.as_dict(),
        len(node.bridge._outgoing), node.bridge.describe(),
        # The TIE: streams, windows, queues, the send in flight, counters.
        [
            (src, len(stream.slots), stream.lowest_missing, stream.consumed,
             stream.credited_upto, stream.wanted)
            for streams in tie.rx for src, stream in streams.items()
        ],
        [
            (dst, window.next_slot, dict(window.credited), len(window.retx),
             len(window.queued))
            for dst, window in tie.windows.items()
        ],
        None if tie.tx is None else tie.tx.index,
        fifo(tie.pending_credits), fifo(tie.requests), len(tie.pending_retx),
        len(tie.mcast_nacks), tie.rx_event, tie.stats.as_dict(),
        (tie._n_data_flits_sent, tie._n_flits_received,
         tie._n_credit_stall_cycles, tie._n_mcast_flits_received),
        None if dma is None else (
            len(dma.queue), None if dma._active is None else dma._active.index,
            None if dma._rx is None else dma._rx.index, dma._rx_done,
            len(dma.pending_retx), dma.stats.as_dict(), dma._n_flits_sent,
            dma._n_credit_stalls, dma._n_reduced,
        ),
        None if agent is None else (
            agent.wants_poll,
            [(key, timer.front, timer.deadline, timer.attempt, timer.dead)
             for key, timer in agent._timers.items()],
        ),
    )


@pytest.mark.parametrize("name", RUNS)
def test_few_of_the_tile_steps_still_paid_for_change_nothing(
    name, quiet_steps, monkeypatch
):
    driver, config, params, least_quiet_share = RUNS[name]
    spied_step = ProcessorNode.step
    residue = Counter()

    def census(node, cycle):
        before = fingerprint(node)
        full_before = quiet_steps.full
        spied_step(node, cycle)
        if quiet_steps.full != full_before and fingerprint(node) == before:
            residue[
                f"{node.state.value}, "
                f"{'stays awake' if node.active else 'back to sleep'}"
            ] += 1

    monkeypatch.setattr(ProcessorNode, "step", census)
    assert driver(config, params).validated

    quiet = sum(quiet_steps.taken.values())
    full = quiet_steps.full
    noop = sum(residue.values())
    print(
        f"\n{name}: {quiet + full} tile steps, {quiet} quiet "
        f"{quiet_steps.taken}, {full} full of which {noop} change nothing "
        f"({noop / full:.1%})"
    )
    for kind, count in residue.most_common():
        print(f"  {count:6d}  {kind}")
    assert quiet >= least_quiet_share * (quiet + full)
    assert noop < 0.10 * full
