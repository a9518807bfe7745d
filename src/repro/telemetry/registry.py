"""MetricRegistry: hierarchical metric names + a delta-sampling timeline.

The simulator already counts everything (every component owns a
:class:`~repro.kernel.stats.CounterSet`; latency-critical paths keep
:class:`~repro.kernel.stats.LatencyStat` histograms) — but only as one
end-of-run number.  The registry unifies those per-component bags under
hierarchical names (``tile3.tie.data_flits_sent``,
``noc.link.(1,1)->(1,2).transits``) and a configurable-cadence sampler
snapshots the *deltas* between visits, so utilization, deflection rate,
credit stalls and retransmits become per-interval curves.

Sources are ``(prefix, provider)`` pairs: ``provider`` returns the
source's current absolute values as a flat dict.  The registry computes
the deltas itself, so providers stay the plain ``as_dict`` accessors the
components already have (a counter set folds its batched hot-path
counters in on every read).

Timing neutrality: sampling only *reads* simulator state (folds move
already-earned counts from plain ints into dicts), and the sampler component's
periodic wakeups merely add cycles to the kernel's visit schedule — the
same argument as the no-progress watchdog — so simulated cycle counts
are bit-identical with telemetry on or off.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.kernel.component import Component
from repro.kernel.stats import CounterSet, LatencyStat

#: A provider returns the source's current absolute counter values.
Provider = Callable[[], dict]


class MetricRegistry:
    """Named metric sources plus the sampled delta timeline."""

    def __init__(self, sample_interval: int = 4096) -> None:
        self.sample_interval = sample_interval
        self._sources: list[tuple[str, Provider]] = []
        #: Absolute value at the last sample, per hierarchical name.
        self._prev: dict[str, float] = {}
        #: One row per sample: (cycle, {name: delta for changed names}).
        self.samples: list[tuple[int, dict[str, float]]] = []
        self._finalized_at: int | None = None

    # -- source registration -------------------------------------------------

    def add_source(self, prefix: str, provider: Provider) -> None:
        """Register a metric source under ``prefix``.

        Keys of the provider's dict become ``{prefix}.{key}`` metric
        names; sources are sampled in registration order.
        """
        self._sources.append((prefix, provider))

    def add_counters(self, prefix: str, counters: CounterSet) -> None:
        self.add_source(prefix, counters.as_dict)

    def add_latency(self, prefix: str, stat: LatencyStat) -> None:
        """Register a latency histogram as count/total counters.

        Sampled deltas of ``count``/``total`` give the per-interval mean
        latency without storing per-sample histograms.
        """
        self.add_source(
            prefix, lambda: {"count": stat.count, "total": stat.total}
        )

    # -- sampling ------------------------------------------------------------

    def sample(self, cycle: int) -> dict[str, float]:
        """Snapshot every source; record and return the delta row."""
        prev = self._prev
        row: dict[str, float] = {}
        for prefix, provider in self._sources:
            for key, value in provider().items():
                name = f"{prefix}.{key}"
                before = prev.get(name, 0)
                if value != before:
                    row[name] = value - before
                    prev[name] = value
        self.samples.append((cycle, row))
        return row

    def finalize(self, cycle: int) -> None:
        """Take the end-of-run sample (idempotent per cycle).

        The periodic sampler lands on interval boundaries; this closes
        the timeline at the actual last cycle so totals match the
        end-of-run counters exactly.
        """
        if self._finalized_at != cycle:
            self.sample(cycle)
            self._finalized_at = cycle

    # -- timeline access -----------------------------------------------------

    def timeline(self, name: str) -> list[tuple[int, float]]:
        """The (cycle, delta) curve of one metric across all samples."""
        return [
            (cycle, row.get(name, 0)) for cycle, row in self.samples
        ]

    def totals(self) -> dict[str, float]:
        """Absolute value of every metric as of the last sample."""
        return dict(self._prev)

    def total(self, name: str, default: float = 0) -> float:
        return self._prev.get(name, default)

    def describe(self, top: int = 6) -> str:
        """One-line snapshot summary for watchdog/timeout reports."""
        if not self.samples:
            return "telemetry: no samples yet"
        cycle, row = self.samples[-1]
        movers = sorted(row.items(), key=lambda kv: -abs(kv[1]))[:top]
        inner = ", ".join(f"{name}+{delta:g}" for name, delta in movers)
        return (
            f"telemetry: last sample at cycle {cycle} "
            f"({len(self.samples)} samples): {inner or 'no movement'}"
        )

    def as_dict(self) -> dict:
        """JSON-ready dump: the full timeline plus the running totals."""
        return {
            "sample_interval": self.sample_interval,
            "samples": [
                {"cycle": cycle, "deltas": row}
                for cycle, row in self.samples
            ],
            "totals": self.totals(),
        }


def sampled_overlap_efficiency(registry: MetricRegistry) -> float:
    """Overlap efficiency recomputed from the sampled timeline alone.

    Sums the per-interval ``empi.overlap.*`` deltas (the registered
    :meth:`~repro.empi.requests.OverlapFold.values` source) across every
    sample row — no access to the event log — so it proves the sampled
    counters carry the paper's overlap-efficiency number.
    """
    coexist = sum(
        row.get("empi.overlap.coexist_cycles", 0)
        for __, row in registry.samples
    )
    inflight = sum(
        row.get("empi.overlap.inflight_cycles", 0)
        for __, row in registry.samples
    )
    return coexist / inflight if inflight else 0.0


class TelemetrySampler(Component):
    """Periodic registry sampler (the watchdog's timing-neutral pattern).

    Registered last so its snapshots see each cycle's final state; its
    step only reads (and folds batched counters), so cycle counts stay
    bit-identical with the sampler present.  Each sample cycle is
    declared to the kernel beforehand (``Simulator.observe_at``), so no
    component has run ahead of the clock when its counters are read.
    """

    def __init__(self, registry: MetricRegistry) -> None:
        super().__init__("telemetry")
        self.registry = registry

    def attach(self, sim) -> None:
        super().attach(sim)
        # The first sample may be taken on any cycle from now on.
        sim.observe_at(sim.cycle)

    def step(self, cycle: int) -> None:
        self.registry.sample(cycle)
        due = cycle + self.registry.sample_interval
        self.sim.observe_at(due)
        self.sleep(until=due)
