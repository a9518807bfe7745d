"""No machine part has a real instance dict after a build or a run.

CPython (3.11 on) keeps up to 29 instance attribute values inline; an
instance with more, or one whose ``__dict__`` something has read, gets a
real dict, and every attribute access on it is slower from then on at the
same opcode count (``ProcessorNode`` had 56 attributes and a real dict in
every run until it took ``__slots__``).  The layout rule is in
``repro.kernel.component``; this test holds every component kind to it —
tiles, MPMMU, fabric, watchdog, telemetry sampler, synthetic traffic
sources — with faults, the DMA engine, telemetry and a chiplet package
fitted, and everything those build.  It reads each object through
``gc.get_referents`` (``real_dict`` of ``benchmarks/opcode_census.py``,
the census's own detector), never through ``__dict__``, whose first read
would make the dict.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.apps.synthetic import run_synthetic_traffic
from repro.faults import FaultPlan
from repro.noc.topology import build_topology
from repro.system.config import SystemConfig
from repro.telemetry.config import TelemetryConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from opcode_census import dict_holders  # noqa: E402

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 every instance keeps its attributes in a "
           "real dict; the inline layout this test guards is 3.11's",
)

_FOUR = SystemConfig(n_workers=4, cache_size_kb=2)


def _allreduce(algorithm: str, n_values: int, model: str = "empi"):
    return CollectiveBenchParams(collective="allreduce", model=model,
                                 algorithm=algorithm, n_values=n_values,
                                 repeats=2)


CASES = {
    # The watchdog's budget outlasts the run, so it makes only its first
    # check, which reads no state (a state read makes a real dict, by
    # design; kernel/watchdog.py).
    "faults_and_watchdog": (run_collective_bench, _FOUR.with_changes(
        faults=FaultPlan(seed=3, drop_rate=0.02), watchdog_cycles=500_000),
        _allreduce("tree", 16)),
    "dma": (run_collective_bench, _FOUR.with_changes(dma_tx_queue_depth=4),
            _allreduce("ring", 64)),
    "shared_memory": (run_collective_bench, _FOUR, _allreduce("tree", 4, "pure_sm")),
    "telemetry": (run_jacobi, _FOUR.with_changes(
        cache_policy="wt",
        telemetry=TelemetryConfig(sample_interval=64, attribution=True)),
        JacobiParams(n=10, iterations=1, warmup=0)),
    "chiplet": (run_collective_bench, SystemConfig(
        n_workers=16, cache_size_kb=2, topology_kind="chiplet", chiplets=4,
        chiplet_grid=(2, 2), chiplet_link_latency=4, chiplet_link_width=2),
        _allreduce("hier", 16)),
}


def holders_left_by(call) -> dict[str, int]:
    """The objects with a real dict among those ``call(new)`` made, by
    ``Class/attributes``; ``new()`` lists the ones made so far.  The
    collector is off meanwhile, so the call's machine is still there to
    read when it returns."""
    build_topology.cache_clear()  # topologies too are the build's
    gc.collect()
    before = gc.get_objects()  # held, so no id is reused
    known = {id(obj) for obj in before}

    def new():
        return [obj for obj in gc.get_objects() if id(obj) not in known]

    gc.disable()
    try:
        call(new)
        return dict_holders(new())
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_machine_part_has_a_real_dict(case):
    driver, config, params = CASES[case]
    after_build = {}

    def run(new):
        result = driver(config, params,
                        observer=lambda system: after_build.update(
                            dict_holders(new())))
        assert result.validated

    after_run = holders_left_by(run)
    assert after_build == {}, f"after the build: {after_build}"
    assert after_run == {}, f"after the run: {after_run}"


def test_no_traffic_source_has_a_real_dict():
    stats = {}

    def run(new):
        stats["result"] = run_synthetic_traffic(rate=0.2, cycles=200,
                                                drain_cycles=400, spatial=True)

    assert holders_left_by(run) == {}
    assert stats["result"].ejected > 0
