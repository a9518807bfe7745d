"""Simulation substrate: clock, components, FIFOs, statistics, the event log.

This package is the stand-in for the authors' SystemC kernel.  It provides
a globally-clocked, cycle-level simulation loop with two optimizations that
make Python viable for multi-million-cycle runs:

* **activity gating** — only components flagged active are stepped;
* **idle fast-forward** — when no component is active the clock jumps
  straight to the earliest scheduled wakeup instead of ticking through
  empty cycles.

Both optimizations are exact: they never change observable cycle counts,
only wall-clock time (verified by the equivalence tests in
``tests/kernel/test_simulator.py``).
"""

from repro.kernel.component import Component
from repro.kernel.fifo import Fifo
from repro.kernel.simulator import Simulator
from repro.kernel.stats import CounterSet, LatencyStat
from repro.kernel.trace import Event, EventLog

__all__ = [
    "Component",
    "CounterSet",
    "Event",
    "EventLog",
    "Fifo",
    "LatencyStat",
    "Simulator",
]
