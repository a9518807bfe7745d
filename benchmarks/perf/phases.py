"""Phase-split timing of one workload, measured from outside the drivers.

The drivers' ``observer`` hook hands over the built system; stamping that
moment and wrapping that instance's ``run`` splits one driver call into
build / load / simulate / validate without a timer inside the simulator.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

from metrics import failed_share, summarize
from repro.system.medea import MedeaSystem
from workloads import Workload, cycles_per_op

#: Never fewer timed repetitions than this outside ``--quick``.
MIN_REPS = 7
#: Timed set-up regions per run; ``setup_s`` is their median.
SETUP_REGIONS = 5

PHASES = ("build_s", "load_s", "simulate_s", "validate_s", "total_s")

#: The calibration loop and what it takes on the reference host when
#: that host is quiet.  Shared hosts drift +-20 % in speed over minutes
#: (measured: raw ten-run spreads of 8-26 %), so every timed region is
#: bracketed by two calibration samples and scaled to the nominal speed.
CALIBRATION_LOOPS = 450_000
NOMINAL_CALIBRATION_S = 0.024


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: a probe of host speed."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def host_speed(before_s: float, after_s: float) -> float:
    """Host speed over a region bracketed by two calibration samples,
    relative to the nominal host (> 1 = faster).  A wall time times
    this is what the region would have taken at nominal speed."""
    return 2 * NOMINAL_CALIBRATION_S / (before_s + after_s)


@dataclass
class Sample:
    """One driver call: its exact results and its phases, in host
    seconds at nominal speed (raw wall time x ``speed``).

    Numbers only — a kept system would grow the heap, and with it
    ``peak_rss_mb`` and every later repetition's time, per repetition.
    """

    sim_cycles: int
    cycles_per_op: float
    #: Host speed during the call, relative to nominal.
    speed: float
    build_s: float
    load_s: float
    simulate_s: float
    validate_s: float
    total_s: float


@dataclass
class Gate:
    """The correctness gate of one workload's run.

    ``attempts`` holds one list of problems per checked driver call; a
    repetition failed if its list is not empty.
    """

    workload: Workload
    attempts: list[list[str]] = field(default_factory=list)

    def summary(self) -> dict:
        failures = [
            "; ".join(problems) for problems in self.attempts if problems
        ]
        return {
            "attempted": len(self.attempts),
            "failed": len(failures),
            "failed_share": failed_share(len(failures), len(self.attempts)),
            "failures": failures,
        }


def timed_call(workload: Workload, config=None, profiler=None):
    """Run the workload's driver once: ``(sample, result, system)``.

    ``profiler`` (a ``cProfile.Profile``) is enabled around exactly the
    driver call, so a traced pass covers the same region ``total_s`` does.
    """
    stamps = {}

    def observer(system):
        stamps["system"] = system
        stamps["built"] = time.perf_counter()
        run = system.run

        def stamped_run(*args, **kwargs):
            stamps["run_start"] = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                stamps["run_end"] = time.perf_counter()

        system.run = stamped_run

    config = workload.config if config is None else config
    gc.collect()
    before = calibration_s()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        result = workload.driver(config, workload.params, observer=observer)
    finally:
        end = time.perf_counter()
        if profiler is not None:
            profiler.disable()
    speed = host_speed(before, calibration_s())
    sample = Sample(
        sim_cycles=result.total_cycles,
        cycles_per_op=cycles_per_op(result),
        speed=speed,
        build_s=(stamps["built"] - start) * speed,
        load_s=(stamps["run_start"] - stamps["built"]) * speed,
        simulate_s=(stamps["run_end"] - stamps["run_start"]) * speed,
        validate_s=(end - stamps["run_end"]) * speed,
        total_s=(end - start) * speed,
    )
    return sample, result, stamps["system"]


def output_problems(
    workload: Workload, validated: bool, sample: Sample,
    golden: bool = True, same_cycles_as: int | None = None,
) -> list[str]:
    """What is wrong with one driver call (empty when it is correct).

    ``golden=False`` is for the seeded warm-up, whose fault pattern (and
    so its cycle count) differs from the pinned one by design.
    ``same_cycles_as`` is an earlier repetition's ``sim_cycles``: the
    double-run determinism check, which holds at any seed.
    """
    problems = []
    if not validated:
        problems.append("validated=False against the reference")
    if same_cycles_as not in (None, sample.sim_cycles):
        problems.append(
            f"sim_cycles {sample.sim_cycles} != {same_cycles_as} of an "
            f"earlier repetition"
        )
    if golden:
        for name, value, expected in (
            ("sim_cycles", sample.sim_cycles, workload.golden_cycles),
            ("cycles_per_op", sample.cycles_per_op,
             workload.golden_cycles_per_op),
        ):
            if value != expected:
                problems.append(f"{name} {value} != golden {expected}")
    return problems


def checked_call(gate: Gate, config=None, profiler=None, **checks):
    """One gated repetition: :func:`timed_call`'s triple, or ``None``
    (and a counted failure) if the driver raised.  A wrong output counts
    as failed but is still returned, so its metrics can be printed."""
    try:
        sample, result, system = timed_call(gate.workload, config, profiler)
    except Exception as error:  # the gate must report, not die
        gate.attempts.append([f"raised {type(error).__name__}: {error}"])
        return None
    gate.attempts.append(
        output_problems(gate.workload, result.validated, sample, **checks)
    )
    return sample, result, system


def _idle_program(ctx):
    """A program that ends at once: set-up cost without a workload."""
    return
    yield


def setup_seconds(workload: Workload, regions: int = SETUP_REGIONS) -> dict:
    """``MedeaSystem(config)`` + ``load_programs``, built and discarded
    ``setup_batch`` times per timed region; region / batch, summarized
    over the regions.  A single 10 ms build is too short to time."""
    config = workload.config
    programs = [_idle_program] * config.n_workers
    per_build = []
    for _ in range(regions):
        gc.collect()
        before = calibration_s()
        start = time.perf_counter()
        for _ in range(workload.setup_batch):
            MedeaSystem(config).load_programs(programs)
        region_s = time.perf_counter() - start
        speed = host_speed(before, calibration_s())
        per_build.append(region_s * speed / workload.setup_batch)
    return summarize(per_build)


def timed_samples(
    gate: Gate, reps: int, deadline: float | None, configs=(None,)
) -> list[list[Sample]]:
    """Gated repetitions of each config in turn, one sample list each.

    Rounds go on until every config has ``reps`` repetitions, then for as
    long as one more round still fits before ``deadline``.  The configs
    of one round run back to back, so drift in host speed hits both sides
    of a ratio alike.  All samples must agree on ``sim_cycles``.
    """
    samples = [[] for _ in configs]
    first_cycles = None
    rounds = 0
    round_s = 0.0
    while rounds < reps or (
        deadline is not None and time.perf_counter() + round_s < deadline
    ):
        round_start = time.perf_counter()
        for config, kept in zip(configs, samples):
            call = checked_call(gate, config, same_cycles_as=first_cycles)
            if call is not None:
                kept.append(call[0])
                if first_cycles is None:
                    first_cycles = call[0].sim_cycles
            call = None  # frees the system before the next gc.collect()
        rounds += 1
        round_s = time.perf_counter() - round_start
    return samples


def phase_summary(samples: list[Sample]) -> dict:
    return {
        phase: summarize([getattr(sample, phase) for sample in samples])
        for phase in PHASES
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_end_to_end(
    workload: Workload, seed: int, reps: int, seconds: float | None,
    quick: bool,
) -> dict:
    """The untraced pass: set-up regions, one seeded warm-up, then the
    timed repetitions.  ``seconds`` bounds the whole pass from its start;
    ``--quick`` is one repetition, one set-up region and no warm-up."""
    start = time.perf_counter()
    gate = Gate(workload)
    setup = setup_seconds(workload, regions=1 if quick else SETUP_REGIONS)
    if not quick:
        checked_call(gate, workload.config_for_seed(seed), golden=False)
    deadline = None if seconds is None else start + seconds
    (samples,) = timed_samples(gate, reps, deadline)
    record = {"gate": gate.summary(), "end_to_end": {}, "phases": {}}
    if samples:
        phases = phase_summary(samples)
        last = samples[-1]
        record["phases"] = phases
        record["host_speed"] = summarize([sample.speed for sample in samples])
        record["end_to_end"] = {
            "sim_cycles_per_s": summarize([
                sample.sim_cycles / sample.simulate_s for sample in samples
            ]),
            "total_s": phases["total_s"],
            "setup_s": setup,
            "peak_rss_mb": summarize([peak_rss_mb()]),
            "sim_cycles": summarize([last.sim_cycles]),
            "cycles_per_op": summarize([last.cycles_per_op]),
        }
    return record
