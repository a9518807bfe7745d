"""End-to-end fault recovery: collectives under seeded faults.

The acceptance battery of the fault-injection subsystem:

* transient drops and corruptions are fully masked — every algorithm
  delivers vectors bit-identical to the fault-free combine-order
  reference, at a measurable cycle cost;
* a permanently killed (non-critical) link still delivers, at degraded
  cycles, through the recomputed productive table;
* eaten credit tokens are repaired by idempotent probes;
* a deliberately stuck collective raises a *typed* error naming rank,
  op and blocked components — never a silent spin to ``max_cycles``;
* the watchdog and the fault layer are timing-neutral when idle.

Every run that finishes is also audited for stream conservation
(``tests.conftest.assert_streams_conserved``): on every tile, credits
issued equal credits consumed and no retired word is still buffered.
"""

from __future__ import annotations

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.empi.collectives import make_comm
from repro.errors import (
    DeadlockError,
    EmpiTimeoutError,
    SimulationError,
    WatchdogError,
)
from repro.faults import FaultPlan
from repro.pe.reliability import ReliabilityAgent
from repro.pe.tie import FINISHED, SENT, OutgoingMessage
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from tests.conftest import assert_streams_conserved

ALGORITHMS = ("tree", "ring", "hw")


def audited_bench(config: SystemConfig, algorithm: str, n_values: int = 16,
                  max_cycles: int | None = None):
    """Two allreduces; a run that finishes must leave every stream conserved."""
    params = CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=n_values, repeats=2,
    )
    systems = []
    result = run_collective_bench(
        config, params, max_cycles=max_cycles, observer=systems.append
    )
    assert_streams_conserved(systems[0])
    return result


def bench(algorithm: str, faults: FaultPlan | None, n_values: int = 16,
          **overrides):
    config = SystemConfig(
        n_workers=8, topology_kind="mesh", faults=faults,
        dma_tx_queue_depth=4 if algorithm == "hw" else 0,
        **overrides,
    )
    return audited_bench(config, algorithm, n_values)


# -- transient faults: bit-identical recovery -------------------------------


@pytest.mark.parametrize("algorithm", ("tree", "hw"))
def test_fabric_counts_only_the_flits_it_delivered(algorithm):
    """Flit conservation under drops *and* corruption: a flit the ejection
    port discards on a checksum mismatch left the network but was never
    ejected, so injected + copies = ejected + dropped + discarded + in
    flight, and every ejected flit has a recorded latency."""
    config = SystemConfig(
        n_workers=8, faults=FaultPlan(seed=3, drop_rate=0.01, corrupt_rate=0.02),
        dma_tx_queue_depth=4 if algorithm == "hw" else 0,
    )
    params = CollectiveBenchParams(
        collective="allreduce", model="empi", algorithm=algorithm,
        n_values=16, repeats=8,
    )
    systems = []
    result = run_collective_bench(config, params, observer=systems.append)
    noc, faults = result.stats["noc"], result.stats["faults"]
    assert result.validated
    assert faults["dropped"] > 0 and faults["crc_dropped"] > 0
    if algorithm == "hw":
        assert noc["mcast_copies"] > 0
    assert noc["flits_ejected"] == noc["latency"]["count"]
    assert noc["flits_injected"] + noc.get("mcast_copies", 0) == (
        noc["flits_ejected"] + faults["dropped"] + faults["crc_dropped"]
        + systems[0].fabric.flits_in_network
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_allreduce_recovers_bit_identically_from_drops(algorithm):
    clean = bench(algorithm, None)
    lossy = bench(algorithm, FaultPlan(seed=3, drop_rate=0.02))
    assert clean.validated and lossy.validated
    faults = lossy.stats["faults"]
    assert faults["dropped"] > 0            # faults actually fired
    assert lossy.total_cycles > clean.total_cycles  # recovery costs cycles
    tie_stats = [w["tie"] for w in lossy.stats["workers"]]
    assert sum(t.get("retx_sent", 0) for t in tie_stats) > 0 or (
        sum(d.get("retx_sent", 0)
            for d in (w["dma"] for w in lossy.stats["workers"]) if d) > 0
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_allreduce_recovers_from_corruption(algorithm):
    result = bench(algorithm, FaultPlan(seed=9, corrupt_rate=0.01))
    assert result.validated
    faults = result.stats["faults"]
    assert faults["corrupted"] > 0
    # Corruption degenerates to loss at the ejection checksum...
    assert faults["crc_dropped"] > 0
    # ...and loss is repaired by NACK/retransmit, not silently absorbed.
    assert faults["nacks_issued"] > 0


def test_recovery_overhead_grows_with_fault_rate():
    cycles = [
        bench("tree", FaultPlan(seed=3, drop_rate=rate)).total_cycles
        for rate in (0.0, 0.01, 0.05)
    ]
    assert cycles[0] < cycles[1] < cycles[2]


@pytest.mark.parametrize("algorithm", ("tree", "hw"))
def test_retx_slots_bounds_both_channels(algorithm, monkeypatch):
    # The retransmit SRAM depth is one budget for both channels: neither
    # the TIE's unicast windows (tree) nor the DMA engine's group window
    # (hw) may hold more than retx_slots slots in flight or buffered.
    peak = {"in_flight": 0, "buffered": 0}
    send = OutgoingMessage.send

    def recording_send(message, offer):
        slot, _gate, _flit = message.entries[message.index]
        sent = send(message, offer)
        if sent in (SENT, FINISHED):    # both peaks follow an emission
            window = message.window
            floor = min(window.credited.get(m, 0) for m in window.members)
            peak["in_flight"] = max(peak["in_flight"], slot + 1 - floor)
            peak["buffered"] = max(peak["buffered"], len(window.retx))
        return sent

    monkeypatch.setattr(OutgoingMessage, "send", recording_send)
    narrow = bench(algorithm, FaultPlan(seed=3, drop_rate=0.02, retx_slots=8),
                   n_values=64)
    assert narrow.validated
    assert narrow.stats["faults"]["dropped"] > 0
    assert peak == {"in_flight": 8, "buffered": 8}  # reached, never passed


# -- permanent link death ---------------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_killed_noncritical_link_still_delivers(algorithm):
    # Link 1->E dies mid-run; the mesh stays connected, so the rerouted
    # productive table must deliver every value (degraded, not broken).
    clean = bench(algorithm, None)
    dead = bench(algorithm, FaultPlan(seed=3, dead_links=[(1, 1, 200)]))
    assert dead.validated
    assert dead.stats["faults"]["link_killed"] == 1
    assert dead.total_cycles >= clean.total_cycles


def test_drop_dead_link_and_stall_combine():
    result = bench("tree", FaultPlan(
        seed=5, drop_rate=0.02, dead_links=[(1, 1, 200)],
        stalls=[(4, 300, 200)],
    ))
    assert result.validated
    faults = result.stats["faults"]
    assert faults["dropped"] > 0
    assert faults["link_killed"] == 1
    assert faults["stall_on"] == 1 and faults["stall_off"] == 1


# -- credit-path faults -----------------------------------------------------


def test_eaten_credit_is_repaired_by_probe():
    # Rank 1 (node 2) streams its contribution to rank 0 (node 1).
    # Credit tokens carry absolute slots, so a single eaten credit heals
    # itself when the next window's token arrives; swallowing *every*
    # windowed credit from node 1 leaves the sender hard-stalled — only
    # the agent's probe (re-fetching the peer's credit value) can unjam
    # it.
    result = bench("tree", FaultPlan(seed=3, drop_credits=[(2, 1, 4)]),
                   n_values=16)
    assert result.validated
    faults = result.stats["faults"]
    assert faults["credits_eaten"] >= 1
    assert faults["probes_issued"] > 0


# -- typed liveness errors --------------------------------------------------


def _waiter(ctx):
    comm = make_comm(ctx, "empi", max_values=4)
    request = yield from comm.irecv(1, 1)
    yield from comm.wait(request)


def _silent(ctx):
    make_comm(ctx, "empi", max_values=4)
    for _ in range(200):
        yield ("compute", 1)


def test_stuck_wait_raises_typed_timeout_naming_rank_and_op():
    config = SystemConfig(n_workers=2, empi_timeout_cycles=2000)
    system = MedeaSystem(config)
    system.load_programs([_waiter, _silent])
    with pytest.raises(EmpiTimeoutError) as exc:
        system.run(max_cycles=2_000_000)
    message = str(exc.value)
    assert "rank 0" in message
    assert "wait on irecv<-1" in message
    assert "outstanding requests: irecv<-1" in message
    assert "exponential-backoff" in message


def test_timeout_error_carries_fault_context_when_faults_active():
    config = SystemConfig(
        n_workers=2, empi_timeout_cycles=2000, empi_timeout_retries=1,
        faults=FaultPlan(seed=13),
    )
    system = MedeaSystem(config)
    system.load_programs([_waiter, _silent])
    with pytest.raises(EmpiTimeoutError) as exc:
        system.run(max_cycles=2_000_000)
    assert "fault context [seed=13]" in str(exc.value)


def test_total_loss_fires_the_watchdog_with_a_structured_report():
    # 100% drop with a small retry budget: recovery gives up, every core
    # parks in a wait state, and the no-progress watchdog must turn the
    # silence into a report naming the blocked components and the fault
    # history — never a silent run to max_cycles.
    def make_program(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "tree", max_values=4)
            yield from comm.allreduce([float(rank)] * 4)
        return program

    plan = FaultPlan(seed=1, drop_rate=1.0, max_retries=2, nack_timeout=64)
    config = SystemConfig(n_workers=4, faults=plan, watchdog_cycles=20_000)
    system = MedeaSystem(config)
    system.load_programs([make_program(rank) for rank in range(4)])
    with pytest.raises(WatchdogError) as exc:
        system.run(max_cycles=2_000_000)
    message = str(exc.value)
    assert "no progress" in message
    assert "wait_msg" in message            # the blocked components
    assert "fault context [seed=1]" in message
    assert isinstance(exc.value, DeadlockError)  # catchable as the base


def test_max_cycles_error_carries_the_report():
    config = SystemConfig(n_workers=2)
    system = MedeaSystem(config)
    system.load_programs([_waiter, _silent])
    with pytest.raises(SimulationError) as exc:
        system.run(max_cycles=2_000)
    message = str(exc.value)
    assert message.startswith("max_cycles=2000 exceeded")
    assert "\n  cycle ledger: rank 0 " in message
    assert "\n  pe[1]: state=done" in message
    assert "\n  empi[rank 0]: pending irecv<-1" in message


def test_a_stalled_switch_fires_the_watchdog_naming_what_moves():
    # Switch 2 stalls from cycle 20 for longer than the run: rank 0's
    # stream to rank 1 never completes, and two of its flits circle the
    # stalled switch.  Not a bug: a correct machine reports it too.
    def sender(ctx):
        yield from ctx.empi.send_doubles(1, [float(i) for i in range(16)])

    def receiver(ctx):
        yield from ctx.empi.recv_doubles(0, 16)

    def idle(ctx):
        yield ("compute", 1)

    config = SystemConfig(
        n_workers=4, topology_kind="mesh", watchdog_cycles=5_000,
        faults=FaultPlan(seed=1, stalls=((2, 20, 60_000),)),
    )
    system = MedeaSystem(config)
    system.load_programs([sender, receiver, idle, idle])
    with pytest.raises(WatchdogError) as exc:
        system.run(max_cycles=200_000)
    report, moved = str(exc.value).split("\n  moved since the last check:\n")
    assert "(watchdog fired at cycle 10000)" in report
    assert "\n  pe[1]: state=wait_msg" in report
    moved = [line.split(":")[0].strip() for line in moved.splitlines()]
    assert "noc.ports[1].inject.stalled_cycles" in moved
    for register in ("noc.regs[0][1]", "noc.regs[1][3]"):
        assert f"{register}.hops" in moved
        assert f"{register}.deflections" in moved


# -- timing neutrality ------------------------------------------------------


def test_watchdog_is_timing_neutral():
    armed = bench("tree", None, watchdog_cycles=5_000)
    unarmed = bench("tree", None)
    assert armed.validated and unarmed.validated
    assert armed.total_cycles == unarmed.total_cycles


def test_the_watchdog_reads_folded_counters(lone_path):
    # A fault-free write-through Jacobi on one worker: its flits travel
    # the lone path, which counts them in plain ints that only a read of
    # the fabric's stats folds in.  No two of its cycles with no core
    # running and the MPMMU idle share a folded fingerprint (measured:
    # the longest legitimate quiet gap is 0 cycles), so a watchdog that
    # checks every cycle must never fire; one whose fingerprint read the
    # counters without the fold would see no flit move, and fires.
    from repro.apps.jacobi.driver import JacobiParams, run_jacobi

    config = SystemConfig(n_workers=1, cache_size_kb=2, cache_policy="wt",
                          watchdog_cycles=1)
    result = run_jacobi(config, JacobiParams(n=10, iterations=2, warmup=0))
    assert result.validated
    assert lone_path.returned.count(True) > 1000


def test_zero_rate_plan_loses_and_retransmits_nothing():
    # The reliable wire format (wide flits, CRC, absolute credits) is
    # opt-in; with a plan attached but nothing injected the collective
    # still validates, nothing is lost, and nothing is retransmitted.
    # (Demand-only starvation NACKs may still fire while a rank simply
    # waits on a slow peer — they are ignored at the sender by design.)
    result = bench("tree", FaultPlan(seed=3))
    assert result.validated
    faults = result.stats["faults"]
    assert faults.get("dropped", 0) == 0
    assert faults.get("crc_dropped", 0) == 0
    assert sum(
        worker["tie"].get("retx_sent", 0)
        for worker in result.stats["workers"]
    ) == 0


# -- faults x chiplet topology ----------------------------------------------


def chiplet_bench(algorithm: str, faults: FaultPlan | None, **overrides):
    config = SystemConfig(
        n_workers=8, topology_kind="chiplet", chiplets=2,
        chiplet_grid=(2, 2), chiplet_link_latency=2, chiplet_link_width=1,
        faults=faults,
        dma_tx_queue_depth=4 if algorithm == "hw" else 0,
        **overrides,
    )
    return audited_bench(config, algorithm, max_cycles=500_000)


def test_killed_intra_chiplet_link_reroutes_within_the_chiplet():
    # Node 2 is c0:1,0; killing its SOUTH link leaves the 2x2 chiplet
    # mesh connected, so the rerouted productive table must deliver
    # every value through the remaining intra-chiplet path.
    clean = chiplet_bench("tree", None)
    dead = chiplet_bench("tree", FaultPlan(seed=3, dead_links=[(2, 2, 200)]))
    assert clean.validated and dead.validated
    assert dead.stats["faults"]["link_killed"] == 1
    assert dead.total_cycles >= clean.total_cycles


def test_dead_uplink_reports_an_honest_partition():
    # A chiplet has exactly one uplink; killing hub port 1 severs
    # chiplet 1 entirely.  No reroute exists, so the no-progress
    # watchdog must turn the stall into a structured report rather
    # than spinning to max_cycles.
    with pytest.raises(WatchdogError) as exc:
        chiplet_bench(
            "tree", FaultPlan(seed=3, dead_links=[(0, 1, 200)]),
            watchdog_cycles=20_000,
        )
    message = str(exc.value)
    assert "no progress" in message
    assert "wait_msg" in message


@pytest.mark.parametrize("algorithm", ("tree", "ring", "hier"))
def test_lossy_interchiplet_links_recover_bit_identically(algorithm):
    # Transient drops on a 4-chiplet package (some inevitably on the
    # serialized inter-chiplet wires): the reliable wire format must
    # mask every loss, for the flat algorithms and the hierarchical
    # schedule alike.
    config = SystemConfig(
        n_workers=16, topology_kind="chiplet", chiplets=4,
        chiplet_grid=(2, 2), chiplet_link_latency=4, chiplet_link_width=2,
        faults=FaultPlan(seed=3, drop_rate=0.02),
    )
    result = audited_bench(config, algorithm, max_cycles=500_000)
    assert result.validated
    assert result.stats["faults"]["dropped"] > 0


@pytest.mark.parametrize("algorithm", ("tree", "hw"))
def test_no_probe_timer_is_armed_while_the_gate_is_open(algorithm, monkeypatch):
    # Across an inter-chiplet link the credit plan widens a peer's window
    # (24 slots here).  The agent must call a sender credit-stalled only
    # when the window's own gate does — on either channel — or it arms
    # probe timers, and sends probes, for streams that are flowing.
    armed = []
    tick = ReliabilityAgent.tick

    def checking_tick(agent, cycle):
        tick(agent, cycle)
        streaming = {
            "tx": agent.tie.tx,
            "mtx": agent.dma._active if agent.dma is not None else None,
        }
        for tag, member in agent._timers:
            if tag in streaming:
                message = streaming[tag]
                slot, gate, _flit = message.entries[message.index]
                assert member in message.window.blocked_by(slot, gate)
                armed.append((tag, member))

    monkeypatch.setattr(ReliabilityAgent, "tick", checking_tick)
    config = SystemConfig(
        n_workers=16, topology_kind="chiplet", chiplets=4,
        chiplet_grid=(2, 2), chiplet_link_latency=4, chiplet_link_width=1,
        faults=FaultPlan(seed=3),
        dma_tx_queue_depth=4 if algorithm == "hw" else 0,
    )
    result = audited_bench(config, algorithm, n_values=64,
                           max_cycles=500_000)
    assert result.validated
    assert armed                      # real stalls are still watched
    assert result.stats["faults"].get("probes_issued", 0) == 0
