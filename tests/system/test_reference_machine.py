"""Whole systems against the reference machine (``tests/reference_machine.py``).

Every run in ``RUNS`` must end in the same ``machine_state`` as built and
with all six skips turned off at once; runs cut short are compared twin
by twin, the kernel's state included, at cycles where that skip was just
taken.  A mismatch fails with the first cycle and field that differ.

The quiet horizon is written only by a step that has shown that nothing
ran after its reliability tick.  Without that condition one scenario in
120 differs, by one credit probe, and no golden notices — hence the drawn
window at the end, which has to be wide, and the two scenarios pinned as
its explicit examples.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.cache.l1 import LINE_BYTES
from repro.dse.registry import full_scale_requested
from repro.empi.collectives import make_comm, reference_allreduce
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.mem.values import pack_doubles
from repro.pe.processor import ProcessorNode
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.telemetry.config import TelemetryConfig
from tests.reference_machine import (
    ScanAllSimulator,
    assert_agree,
    drive,
    reference_machine,
)


def allreduce(algorithm: str, n_values: int = 16, repeats: int = 2):
    return CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=n_values, repeats=repeats,
    )


_FOUR_WT = SystemConfig(n_workers=4, cache_size_kb=4, cache_policy="wt")
_JACOBI = JacobiParams(n=10, iterations=2, warmup=0)
_EIGHT = SystemConfig(n_workers=8, cache_size_kb=16)
_MESH = SystemConfig(n_workers=8, topology_kind="mesh")
_CHIPLETS = SystemConfig(
    n_workers=16, topology_kind="chiplet", chiplets=4, chiplet_grid=(2, 2),
    chiplet_link_latency=4, chiplet_link_width=2,
)

#: name -> (config, collective-bench params).
BENCHES = {
    # The shared-memory path: nearly every fabric step holds one flit.
    "allreduce_sm": (
        SystemConfig(n_workers=4, cache_size_kb=4),
        CollectiveBenchParams(
            collective="allreduce", model="pure_sm", algorithm="tree",
            n_values=8, repeats=1,
        ),
    ),
    # The DMA engine's ring: contended switches, one-bit multicast flits.
    "dma_ring": (
        _EIGHT.with_changes(dma_tx_queue_depth=4), allreduce("ring", 64, 1),
    ),
    # The benchmark's allreduce_tree_8w_lossy, four repeats for sixteen.
    "lossy_tree": (
        _EIGHT.with_changes(faults=FaultPlan(seed=3, drop_rate=0.02)),
        allreduce("tree", repeats=4),
    ),
    # test_drop_dead_link_and_stall_combine's plan.
    "drop_dead_link_stall": (
        _MESH.with_changes(faults=FaultPlan(
            seed=5, drop_rate=0.02, dead_links=[(1, 1, 200)],
            stalls=[(4, 300, 200)],
        )),
        allreduce("tree"),
    ),
    # test_eaten_credit_is_repaired_by_probe's: the TX timers and probes.
    "eaten_credits": (
        _MESH.with_changes(
            faults=FaultPlan(seed=3, drop_credits=[(2, 1, 4)])
        ),
        allreduce("tree"),
    ),
    # Agents attached (a plan with no fault in it) and DMA engines fitted:
    # the reduction assist and the group stream under the poll arms.
    "chiplet_hw": (
        _CHIPLETS.with_changes(
            dma_tx_queue_depth=4, faults=FaultPlan(seed=3)
        ),
        allreduce("hw"),
    ),
    # No fault plan, so no agent: the stalled arm with a horizon of never.
    "chiplet_hier": (_CHIPLETS, allreduce("hier")),
    # 64 workers, fabric and MPMMU: 66 components, a mask past 64 bits.
    "chiplet_hier_64w": (
        SystemConfig(
            n_workers=64, cache_size_kb=16, topology_kind="chiplet",
            chiplets=4, chiplet_grid=(4, 4), chiplet_link_latency=8,
            chiplet_link_width=2,
        ),
        allreduce("hier", 8, 1),
    ),
}

#: name -> (config, Jacobi params).
JACOBIS = {
    "jacobi_wt": (_FOUR_WT, _JACOBI),
    # Run-ahead's workload: L1 hits between the barriers.
    "jacobi_wb": (_FOUR_WT.with_changes(cache_policy="wb"), _JACOBI),
    "jacobi_wt_telemetry": (
        _FOUR_WT.with_changes(
            telemetry=TelemetryConfig(sample_interval=256, attribution=True)
        ),
        _JACOBI,
    ),
    # A sample every third cycle: horizons fall between a double's words.
    "jacobi_wb_sampled": (
        _FOUR_WT.with_changes(
            cache_policy="wb", telemetry=TelemetryConfig(sample_interval=3)
        ),
        _JACOBI,
    ),
}


def run_overlap(max_cycles, observer) -> bool:
    """A non-blocking tree allreduce (``isend`` underneath) progressed
    from inside an ``overlap`` region of compute, then the blocking one,
    under 3 % drops: the TIE streams and stalls while the core is
    ``RUNNING`` — a credit-gated TX phase that must write no horizon —
    and the blocking half takes the arm with the same timers armed."""
    n_workers, n_values = 8, 12
    contributions = [
        [rank + 0.25 * i for i in range(n_values)] for rank in range(n_workers)
    ]
    outputs = {}

    def factory(rank):
        def compute():
            for __ in range(40):
                yield ("compute", 7)

        def program(ctx):
            comm = make_comm(
                ctx, "empi", "tree", max_values=n_values, p2p_values=1
            )
            yield from comm.barrier()
            request = yield from comm.iallreduce(contributions[rank])
            yield from comm.overlap(compute())
            overlapped = yield from comm.wait(request)
            yield from comm.barrier()
            blocking = yield from comm.allreduce(contributions[rank])
            outputs[rank] = (overlapped, blocking)
            yield from comm.barrier()
        return program

    system = MedeaSystem(SystemConfig(
        n_workers=n_workers, faults=FaultPlan(seed=2, drop_rate=0.03),
    ))
    observer(system)
    system.load_programs([factory(rank) for rank in range(n_workers)])
    system.run(max_cycles=max_cycles or 500_000)
    expected = reference_allreduce(contributions, "sum", "tree")
    return all(outputs[rank] == (expected, expected)
               for rank in range(n_workers))


def run_stalled_send(max_cycles, observer) -> bool:
    """Hand-written: a blocking send whose credits are eaten (probes
    repair it, timeouts later) issued behind four dirty-line flushes and
    a group descriptor that loses credits too — the stalled tile's bridge
    still has block-write data to offer and its DMA engine stall cycles
    of its own to count, which a stalled cycle that only counts the TIE's
    would leave out; once both are done the arm takes the rest of the
    stall."""
    words = list(range(100, 140))
    received = {}

    def sender(ctx):
        peer = ctx.node_of(1)
        lines = [ctx.private_base + LINE_BYTES * index for index in range(4)]
        for addr in lines:
            yield ("store", addr, addr)
        assert (yield ("qmcast", 1 << peer, words[::-1]))
        for addr in lines:
            yield ("flush", addr)
        yield ("send", peer, words)
        yield ("fence",)

    def receiver(ctx):
        peer = ctx.node_of(0)
        received["unicast"] = yield ("recv", peer, len(words))
        received["group"] = yield ("mrecv", peer, len(words))

    system = MedeaSystem(SystemConfig(
        n_workers=2, dma_tx_queue_depth=2,
        # (at node, from node, tokens): rank 0 is node 1, rank 1 node 2.
        faults=FaultPlan(
            drop_credits=[(1, 2, 5)], drop_mcast_credits=[(1, 2, 2)]
        ),
    ))
    observer(system)
    system.load_programs([sender, receiver])
    system.run(max_cycles=max_cycles or 100_000)
    return received == {"unicast": words, "group": words[::-1]}


def run_stalled_send_reducing(max_cycles, observer) -> bool:
    """Hand-written: the credit-starved send again, issued with an
    accumulate-on-receive descriptor posted whose doubles arrive during
    the stall — the assist combines one per cycle, after each tick."""
    words = list(range(100, 140))
    addends = [0.5 * index for index in range(12)]
    received = {}

    def reducer(ctx):
        peer = ctx.node_of(1)
        assert (yield ("qreduce", peer, [1.0] * len(addends), "sum"))
        yield ("send", peer, words)
        while received.get("sum") is None:
            received["sum"] = yield ("qrpoll",)

    def feeder(ctx):
        peer = ctx.node_of(0)
        yield ("compute", 60)
        assert (yield ("qmcast", 1 << peer, pack_doubles(addends)))
        received["unicast"] = yield ("recv", peer, len(words))

    system = MedeaSystem(SystemConfig(
        n_workers=2, dma_tx_queue_depth=2,
        faults=FaultPlan(drop_credits=[(1, 2, 4)]),
    ))
    observer(system)
    system.load_programs([reducer, feeder])
    system.run(max_cycles=max_cycles or 100_000)
    return received == {
        "unicast": words, "sum": [1.0 + addend for addend in addends],
    }


#: name -> run(max_cycles, observer): builds the system, shows it to
#: ``observer``, runs it and says whether the programs computed the
#: right thing (``tests.reference_machine.outcome``'s runs).
RUNS = (
    {name: partial(drive, run_jacobi, *jacobi)
     for name, jacobi in JACOBIS.items()}
    | {name: partial(drive, run_collective_bench, *bench)
       for name, bench in BENCHES.items()}
    | {"isend_overlap": run_overlap, "stalled_send": run_stalled_send,
       "stalled_send_reducing": run_stalled_send_reducing}
)


def run(name: str) -> MedeaSystem:
    seen = []
    assert RUNS[name](None, seen.append), f"{name} computed a wrong result"
    return seen[0]


#: What each run must have exercised for its comparison to mean something:
#: the runs the lone-flit path carries, and the quiet arms each run takes
#: (``quiet_steps.taken`` keys).
LONE = ("jacobi_wt", "allreduce_sm", "jacobi_wt_telemetry")
ARMS = {
    "lossy_tree": ("stalled", "running", "blocked"),
    "drop_dead_link_stall": ("stalled", "running", "blocked"),
    "eaten_credits": ("stalled", "running", "blocked"),
    "chiplet_hw": ("running", "blocked"),
    "chiplet_hier": ("stalled",),
    "isend_overlap": ("stalled", "running", "blocked"),
    "stalled_send": ("stalled",),
    "stalled_send_reducing": ("blocked",),  # the stall itself: never
}


@pytest.mark.parametrize("name", RUNS)
def test_whole_runs_agree_with_the_reference_machine(
    name, lone_path, quiet_steps
):
    as_built = assert_agree(RUNS[name])
    assert as_built["outcome"] is True, f"{name} computed a wrong result"
    if name in LONE:
        # The path carried most of the traffic (every flit is injected,
        # hops and ejects: three steps or more).
        ejected = as_built["system"]["stats"]["noc"]["flits_ejected"]
        assert sum(lone_path.returned) > 2 * ejected
    for arm in ARMS.get(name, ()):
        assert quiet_steps.taken[arm] > 0, (arm, quiet_steps.taken)


#: (twin, run): each schedule-keeping twin alone, on runs its skip carries.
CUT_SHORT = [
    ("kernel", "lossy_tree"), ("kernel", "dma_ring"),
    ("kernel", "chiplet_hier_64w"),
    ("lone_path", "jacobi_wt"), ("lone_path", "allreduce_sm"),
    ("quiet", "lossy_tree"), ("quiet", "eaten_credits"),
    ("quiet", "chiplet_hier"), ("quiet", "isend_overlap"),
    ("router", "dma_ring"), ("router", "chiplet_hw"),
    ("double", "jacobi_wb"), ("double", "jacobi_wt"),
]


@pytest.mark.parametrize("twin, name", CUT_SHORT)
def test_runs_cut_short_agree_twin_by_twin(
    twin, name, lone_path, quiet_steps, doubles
):
    """Stopped right after three cycles a quarter, half and three quarters
    of the way through those on which the skip was taken — a flit latched
    by the lone path (and caught in its link register), a tile in the
    quiet arm, the first of a double's two words run in one visit (the
    stop falls between them) — or through the run, for the kernel and the
    router; the kernel's active set, its mask and its pending wake-ups are
    compared too."""
    whole = run(name)
    if twin == "kernel":  # the twin is the reference machine's kernel
        with reference_machine([twin]):
            assert type(MedeaSystem(_FOUR_WT).sim) is ScanAllSimulator
    cycles = {
        "kernel": range(whole.cycle), "router": range(whole.cycle),
        "lone_path": list(lone_path.latched),
        "quiet": [cycle for cycle, __ in quiet_steps.cycles],
        "double": sorted(doubles.fused),
    }[twin]
    assert cycles, f"{name} never took the {twin} skip"
    for k in (1, 2, 3):
        stop = cycles[len(cycles) * k // 4] + 1
        as_built = assert_agree(RUNS[name], (twin,), stop, schedule=True)
        kernel = as_built["kernel"]
        assert kernel["mask"] == kernel["active"], f"stopped at {stop}"
        if twin == "lone_path":
            fabric = as_built["noc"]
            assert fabric["_flit_count"] == 1, f"stopped at {stop}"
            assert any(any(row) for row in fabric["regs"]), f"stopped at {stop}"


@pytest.mark.parametrize("name", JACOBIS)
def test_whole_runs_agree_with_word_by_word_doubles(name, doubles):
    """The ``double`` twin alone: the full reference machine runs no core
    ahead of the clock, so it never runs a double's words in one visit
    either."""
    as_built = assert_agree(RUNS[name], ("double",))
    assert as_built["outcome"] is True, f"{name} computed a wrong result"
    assert doubles.fused, f"{name} ran no double in one visit"


def test_samples_between_the_words_send_doubles_word_by_word(doubles):
    """A sample every third cycle leaves fewer doubles room for both
    words before the next one, so more of them run word by word."""
    run("jacobi_wb")
    fused, word_by_word = len(doubles.fused), doubles.word_by_word
    run("jacobi_wb_sampled")
    assert 0 < len(doubles.fused) - fused < fused
    assert doubles.word_by_word - word_by_word > word_by_word


def test_the_arm_declines_while_a_reduce_descriptor_is_live(
    quiet_steps, monkeypatch
):
    """The reduction assist reads its stream after every tick (and
    raises its demand from ``_phase_sleep``), so no horizon is written
    while an accumulate-on-receive descriptor is posted — here through
    dozens of credit-stalled cycles that the arm would otherwise take."""
    spied_step = ProcessorNode.step
    stalled_while_live = []

    def watch(node, cycle):
        live = node.dma._rx is not None
        before = sum(quiet_steps.taken.values())
        stalls = node._n_credit_wait
        spied_step(node, cycle)
        if live:
            stalled_while_live.append(node._n_credit_wait - stalls)
            assert sum(quiet_steps.taken.values()) == before, (
                f"{node.name} took the quiet arm at cycle {cycle} with a "
                f"reduce descriptor live"
            )

    monkeypatch.setattr(ProcessorNode, "step", watch)
    run("stalled_send_reducing")
    assert sum(stalled_while_live) > 50


def test_a_timer_that_gave_up_does_not_hold_the_arm_back(quiet_steps):
    """A ``dead`` timer never acts again, so ``next_deadline`` skips it:
    the tile whose peer is gone for good keeps taking the arm after its
    agent gave up.  (The dead timer's deadline stays where it was, in the
    past: counted, it would end every horizon before it began.)"""
    plan = FaultPlan(
        drop_rate=1.0, fault_links=[(1, 1)], nack_timeout=8, max_retries=2,
    )
    seen = []
    with pytest.raises(SimulationError, match="max_cycles"):
        run_collective_bench(
            _MESH.with_changes(faults=plan), allreduce("tree", repeats=1),
            max_cycles=4_000, observer=seen.append,
        )
    (system,) = seen
    assert system.injector.gave_up
    gave_up_at = {
        node.name: max(
            timer.deadline for timer in node.reliability._timers.values()
            if timer.dead
        )
        for node in system.nodes
        if any(timer.dead for timer in node.reliability._timers.values())
    }
    assert gave_up_at
    assert any(
        cycle > gave_up_at.get(name, system.cycle)
        for cycle, name in quiet_steps.cycles
    )


# -- the drawn window ----------------------------------------------------------

#: (algorithm, DMA queue depth): the TIE flavour and the engine flavour of
#: each of the three software algorithms.
_FLAVOURS = [
    (algorithm, depth)
    for algorithm in ("tree", "ring", "linear") for depth in (0, 4)
]

_scenarios = st.tuples(
    st.integers(0, 5),                          # fault seed
    st.sampled_from([0.02, 0.03, 0.04, 0.06]),  # drop rate
    st.sampled_from([0.0, 0.0, 0.01]),          # corruption rate
    st.sampled_from(_FLAVOURS),
    st.sampled_from([32, 64, 96, 200]),         # nack_timeout
    st.sampled_from([(8, 3), (16, 2), (24, 2)]),  # values x repeats
)


@settings(
    max_examples=400 if full_scale_requested() else 32,
    derandomize=True, deadline=None, database=None,
    phases=(Phase.explicit, Phase.generate),  # no shrinking: small as drawn
    # The lone-path spy is read per example, as a difference.
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(scenario=_scenarios)
# The two scenarios that notice a horizon written by a step whose core ran
# after the tick — by a RUNNING tile's early wake (one credit probe fewer,
# cycles equal) and by a blocked tile's poll (a NACK timer armed late).
@example(scenario=(1, 0.06, 0.0, ("ring", 4), 96, (24, 3)))
@example(scenario=(0, 0.04, 0.0, ("tree", 4), 64, (24, 3)))
def test_drawn_lossy_allreduces_agree_with_the_reference_machine(
    scenario, lone_path
):
    seed, drop_rate, corrupt_rate, (algorithm, depth), timeout, size = scenario
    config = _EIGHT.with_changes(
        dma_tx_queue_depth=depth,
        faults=FaultPlan(
            seed=seed, drop_rate=drop_rate, corrupt_rate=corrupt_rate,
            nack_timeout=timeout,
        ),
    )
    taken = len(lone_path.returned)
    as_built = assert_agree(
        partial(drive, run_collective_bench, config, allreduce(algorithm, *size))
    )
    # Every corrupted flit is caught at ejection and repaired.
    assert as_built["outcome"] is True, scenario
    # The lone-flit path carried some of the run's steps under the plan.
    assert any(lone_path.returned[taken:]), scenario
