"""Fast unit tests of the benchmark's own arithmetic (no timed runs).

Collected by the tier-1 ``pytest`` run; the whole file takes about a
second — the only simulation is a 2-worker, 6x6 Jacobi.
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import pytest

import run  # first: it puts src/ on sys.path when PYTHONPATH does not

import compare
import layers
import metrics
import phases
import workloads
from repro.apps.jacobi.driver import JacobiParams, run_jacobi
from repro.system.config import SystemConfig
from repro.telemetry import attribution

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- file path -> layer fold ---------------------------------------------------


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/noc/network.py", "noc"),
    ("/x/src/repro/pe/reliability.py", "pe"),
    ("/x/src/repro/faults.py", "faults"),
    ("/x/src/repro/kernel/simulator.py", "kernel"),
    ("/x/src/repro/cli.py", "host_other"),
    ("/x/src/repro/dse/executor.py", "host_other"),
    ("/usr/lib/python3.11/heapq.py", "host_other"),
    ("/x/benchmarks/perf/phases.py", "host_other"),
    ("C:\\x\\src\\repro\\empi\\runtime.py", "empi"),
])
def test_layer_of(path, layer):
    assert layers.layer_of(path) == layer


def _entry(filename, name, calls, self_s):
    code = SimpleNamespace(co_filename=filename, co_name=name)
    return SimpleNamespace(code=code, callcount=calls, inlinetime=self_s)


def test_fold_profile_shares_sum_to_one_and_counts_steps():
    entries = [
        _entry("/r/repro/noc/network.py", "step", 10, 0.5),
        _entry("/r/repro/pe/processor.py", "step", 7, 0.25),
        _entry("/r/repro/pe/processor.py", "_execute", 30, 0.125),
        _entry("/r/repro/kernel/simulator.py", "wake_at", 4, 0.0625),
        _entry("/r/repro/kernel/simulator.py", "notify_activated", 5, 0.0),
        SimpleNamespace(code="<built-in method len>", callcount=99,
                        inlinetime=0.0625),
    ]
    host = layers.host_metrics(layers.fold_profile(entries))
    shares = [host[f"{layer}.host_share"] for layer in metrics.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-12)
    assert host["noc.host_share"] == 0.5
    assert host["pe.host_share"] == 0.375
    assert host["pe.host_calls"] == 37
    assert host["host_other.host_calls"] == 99
    assert host["kernel.steps"] == 17
    assert (host["noc.steps"], host["pe.steps"], host["mpmmu.steps"]) == (
        10, 7, 0,
    )
    assert host["kernel.wakeups"] == 4
    assert host["kernel.activations"] == 5
    assert host["dma.host_calls"] == 0 and host["dma.host_share"] == 0


# -- reductions and failed_share ------------------------------------------------


def test_summarize_median_min_max_count():
    summary = metrics.summarize([5.0, 1.0, 3.0, 9.0, 2.0])
    assert summary["value"] == 3.0
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 9.0, 5)
    # Quartiles are sample values here, so one outlier cannot move them.
    assert (summary["q1"], summary["q3"]) == (2.0, 5.0)
    assert metrics.summarize([4.0, 2.0])["value"] == 3.0
    single = metrics.summarize([7])
    assert single["value"] == single["q1"] == single["q3"] == 7


def test_failed_share_arithmetic():
    assert metrics.failed_share(0, 10) == 0
    assert metrics.failed_share(3, 12) == 0.25
    assert metrics.failed_share(0, 0) == 1.0
    gate = phases.Gate(workloads.WORKLOADS[0])
    gate.attempts += [[], ["validated=False"], [], ["a", "b"]]
    summary = gate.summary()
    assert (summary["attempted"], summary["failed"]) == (4, 2)
    assert summary["failed_share"] == 0.5
    assert summary["failures"] == ["validated=False", "a; b"]


def test_output_problems_names_every_miss():
    workload = workloads.WORKLOADS[0]
    good = phases.Sample(
        workload.golden_cycles, workload.golden_cycles_per_op, 1, 0, 0, 0, 0, 0
    )
    assert phases.output_problems(workload, True, good) == []
    assert phases.output_problems(
        workload, True, good, same_cycles_as=workload.golden_cycles
    ) == []
    bad = phases.Sample(workload.golden_cycles + 1, 1.5, 1, 0, 0, 0, 0, 0)
    problems = phases.output_problems(
        workload, False, bad, same_cycles_as=workload.golden_cycles
    )
    assert len(problems) == 4
    # The seeded warm-up skips the goldens but not validation.
    assert phases.output_problems(workload, True, bad, golden=False) == []


# -- one tiny real run: phase split, ledger, all 81 metrics -------------------


@pytest.fixture(scope="module")
def tiny():
    config = SystemConfig(n_workers=2, cache_size_kb=4)
    params = JacobiParams(n=6, iterations=2, warmup=1)
    reference = run_jacobi(config, params)
    return workloads.Workload(
        "tiny", "test only", run_jacobi, config, params,
        reference.total_cycles, reference.cycles_per_iteration,
        setup_batch=1,
    )


def test_phases_partition_the_driver_call(tiny):
    sample, result, system = phases.timed_call(tiny)
    assert result.validated and system.cycle == sample.sim_cycles
    parts = (sample.build_s, sample.load_s, sample.simulate_s,
             sample.validate_s)
    assert all(part > 0 for part in parts)
    assert sum(parts) == pytest.approx(sample.total_s, rel=1e-9)
    assert 0.1 < sample.speed < 10


def test_host_speed_scales_to_the_nominal_host():
    nominal = phases.NOMINAL_CALIBRATION_S
    assert phases.host_speed(nominal, nominal) == 1.0
    # A host twice as slow: its wall times count half.
    assert phases.host_speed(2 * nominal, 2 * nominal) == 0.5
    assert phases.host_speed(nominal / 2, 3 * nominal / 2) == 1.0


def test_gate_catches_a_wrong_golden(tiny):
    wrong = workloads.Workload(**{
        **vars(tiny), "golden_cycles": tiny.golden_cycles + 1,
    })
    gate = phases.Gate(wrong)
    assert phases.checked_call(gate) is not None
    assert gate.summary()["failed"] == 1
    record = phases.measure_end_to_end(wrong, seed=3, reps=1, seconds=None,
                                       quick=True)
    assert record["gate"]["failed_share"] == 1.0
    assert run.result_line(record, traced=False).startswith('{"correct": false')


def test_traced_pass_yields_every_per_layer_metric(tiny):
    record = layers.measure_per_layer(tiny, reps=1, seconds=None)
    assert record["gate"]["failed"] == 0
    assert list(run.reported(record, traced=True)) == [
        row[0] for row in metrics.PER_LAYER
    ]
    values = {
        name: entry["value"] for name, entry in record["per_layer"].items()
    }
    shares = [values[f"{layer}.host_share"] for layer in metrics.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-3)
    ledger = [values[f"pe.{cls}_share"] for cls in metrics.LEDGER_CLASSES]
    assert sum(ledger) == pytest.approx(1.0, abs=1e-12)
    assert values["kernel.steps"] >= values["noc.steps"] + values["pe.steps"]
    assert values["dma.host_calls"] == values["faults.host_calls"] == 0
    assert values["telemetry.overhead_ratio"] == 1.0


# -- output schema --------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == [tuple(row) for row in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [tuple(row) for row in metrics.PER_LAYER]


def test_names_units_and_sizes_fit_the_contract():
    assert len(metrics.PER_LAYER) == 81
    # metrics.py stays importable without the simulator (compare.py),
    # so it repeats the ledger's class names: keep the copy honest.
    assert metrics.LEDGER_CLASSES == attribution.LEDGER_CLASSES
    rows = metrics.END_TO_END + metrics.PER_LAYER
    names = [row[0] for row in rows] + [w.name for w in workloads.WORKLOADS]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(row[1]) for row in rows)
    assert all(row[2] in ("lower", "higher") for row in rows)
    assert all(0 <= row[3] <= 0.25 for row in metrics.END_TO_END)
    setup = dict((row[0], row) for row in metrics.END_TO_END)["setup_s"]
    assert setup[1:3] == ("s", "lower")
    assert setup[3] == max(row[3] for row in metrics.END_TO_END)
    assert 2 <= len(workloads.WORKLOADS) <= 8
    for workload in workloads.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_result_line_has_exactly_the_contract_keys():
    record = {
        "gate": {"attempted": 8, "failed": 0, "failed_share": 0.0,
                 "failures": []},
        "end_to_end": {
            row[0]: metrics.summarize([1.5, 2.5]) for row in metrics.END_TO_END
        },
    }
    line = json.loads(run.result_line(record, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 8, 0)
    assert list(line["metrics"]) == [row[0] for row in metrics.END_TO_END]
    assert line["metrics"]["total_s"] == {"value": 2.0, "unit": "s"}
    # Nothing measured: no result line at all.
    assert run.result_line({"gate": record["gate"]}, traced=False) is None
    assert run.result_line({"gate": record["gate"]}, traced=True) is None


def test_only_the_lossy_workload_takes_the_seed():
    for workload in workloads.WORKLOADS:
        reseeded = workload.config_for_seed(11)
        if workload.name == "allreduce_tree_8w_lossy":
            assert reseeded.faults.seed == 11
            assert workload.config.faults.seed == workloads.PINNED_FAULT_SEED
            assert reseeded.faults.drop_rate == workload.config.faults.drop_rate
        else:
            assert reseeded is workload.config


# -- compare.py verdicts -----------------------------------------------------------


def _side(value, q1=None, q3=None):
    return {"value": value, "q1": q1 or value, "q3": q3 or value}


@pytest.mark.parametrize("a, b, better, bound, word", [
    (_side(100), _side(100), "lower", 0.0, "same"),
    (_side(100), _side(101), "lower", 0.0, "worse"),
    (_side(100), _side(99), "lower", 0.0, "better"),
    (_side(0), _side(0), "lower", 0.0, "same"),
    (_side(0), _side(0.1), "lower", 0.0, "worse"),
    (_side(1.0, 0.99, 1.01), _side(1.05, 1.04, 1.06), "lower", 0.1, "same"),
    (_side(1.0, 0.99, 1.01), _side(1.2, 1.1, 1.3), "lower", 0.1, "worse"),
    (_side(1.0, 0.99, 1.01), _side(0.8, 0.7, 0.9), "lower", 0.1, "better"),
    (_side(1.0, 0.99, 1.01), _side(0.95, 0.94, 0.96), "lower", 0.1, "same"),
    (_side(1.0, 0.9, 1.1), _side(1.05, 0.9, 1.2), "lower", 0.1, "unresolved"),
    (_side(100, 99, 101), _side(80, 79, 81), "higher", 0.1, "worse"),
    (_side(100, 99, 101), _side(104, 103, 105), "higher", 0.1, "same"),
    (_side(100, 99, 101), _side(120, 119, 121), "higher", 0.1, "better"),
])
def test_verdict(a, b, better, bound, word):
    assert compare.verdict(a, b, better, bound) == word


def test_compare_finds_exact_count_drift():
    def document(hops):
        return {"workloads": {"w": {"per_layer": {
            "noc.flit_hops": {"value": hops, "unit": "count"},
            "noc.host_share": {"value": hops / 1000, "unit": "fraction"},
        }}}}

    assert compare.exact_differences(document(7), document(7)) == []
    assert compare.exact_differences(document(7), document(8)) == [
        ("w", "noc.flit_hops", 7, 8)
    ]
