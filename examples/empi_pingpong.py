"""eMPI ping-pong: message latency and bandwidth between two cores.

The classic MPI microbenchmark on the TIE message-passing path: rank 0
sends a message of N doubles to rank 1, which bounces it straight back;
half the round trip is the one-way latency.  Also measures the barrier
primitives, and contrasts them with a shared-memory barrier through the
MPMMU — the per-operation version of the paper's headline claim.

Run with::

    python examples/empi_pingpong.py
"""

from __future__ import annotations

from repro import SystemConfig
from repro.dse.report import format_table
from repro.empi.smsync import SharedMemoryBarrier
from repro.kernel.trace import MARK
from repro.system.medea import MedeaSystem

ROUNDS = 8


def pingpong_cycles(n_doubles: int) -> float:
    """Average round-trip cycles for a message of ``n_doubles``."""
    marks: list[int] = []

    def ping(ctx):
        payload = [float(i) for i in range(n_doubles)]
        yield from ctx.empi.barrier()
        for __ in range(ROUNDS):
            yield ctx.note("rt")
            yield from ctx.empi.send_doubles(1, payload)
            __ = yield from ctx.empi.recv_doubles(1, n_doubles)
        yield ctx.note("rt")

    def pong(ctx):
        yield from ctx.empi.barrier()
        for __ in range(ROUNDS):
            payload = yield from ctx.empi.recv_doubles(0, n_doubles)
            yield from ctx.empi.send_doubles(0, payload)

    system = MedeaSystem(SystemConfig(n_workers=2, cache_size_kb=8))
    system.load_programs([ping, pong])
    system.run()
    marks = [e.cycle for e in system.events.of_kind(MARK) if e.key == "rt"]
    spans = [b - a for a, b in zip(marks, marks[1:])]
    return sum(spans) / len(spans)


def barrier_cycles(kind: str, n_workers: int = 4) -> float:
    """Average cycles per barrier episode."""
    def program(ctx):
        if kind == "sm":
            barrier = SharedMemoryBarrier(ctx, ctx.shared_base)
            wait = barrier.wait
        else:
            wait = ctx.empi.barrier
        yield from wait()  # align everyone first
        if ctx.rank == 0:
            yield ctx.note("b")
        for __ in range(ROUNDS):
            yield from wait()
            if ctx.rank == 0:
                yield ctx.note("b")

    config = SystemConfig(n_workers=n_workers, cache_size_kb=8,
                          empi_barrier="central" if kind == "central"
                          else "dissemination" if kind == "dissemination"
                          else "central")
    system = MedeaSystem(config)
    system.load_programs([program] * n_workers)
    system.run()
    marks = [e.cycle for e in system.events.of_kind(MARK) if e.key == "b"]
    spans = [b - a for a, b in zip(marks, marks[1:])]
    return sum(spans) / len(spans)


def main() -> None:
    rows = []
    for n_doubles in (1, 4, 16, 64, 256):
        round_trip = pingpong_cycles(n_doubles)
        flits = 2 * n_doubles  # two 32-bit flits per double
        rows.append([
            n_doubles, f"{round_trip:.0f}", f"{round_trip / 2:.0f}",
            f"{flits / (round_trip / 2):.2f}",
        ])
    print(format_table(
        ["doubles", "round trip (cyc)", "one way (cyc)", "flits/cycle"],
        rows,
        title="eMPI ping-pong between adjacent cores",
    ))

    rows = [
        ["eMPI central", f"{barrier_cycles('central'):.0f}"],
        ["eMPI dissemination", f"{barrier_cycles('dissemination'):.0f}"],
        ["shared-memory lock+spin", f"{barrier_cycles('sm'):.0f}"],
    ]
    print(format_table(
        ["barrier", "cycles/episode"], rows,
        title="barrier cost, 4 workers",
    ))
    print("the SM barrier's cost is the synchronization overhead the")
    print("hybrid architecture exists to remove (paper Sec. I and III).")


if __name__ == "__main__":
    main()
