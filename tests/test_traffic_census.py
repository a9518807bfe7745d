"""The traffic census (benchmarks/traffic_census.py) over a tiny traffic."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.apps.jacobi.driver import JacobiParams
from repro.dse.executor import run_space
from repro.dse.space import jacobi_sweep_space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from traffic_census import (  # noqa: E402
    SRC, observe, option_lines, report, unreached,
)

PLANTED = '''\
def reached():
    return 1


class Holder:
    @staticmethod
    def never(value):
        doubled = 2 * value
        return doubled

    def __repr__(self):
        return "<Holder>"
'''


def tiny_space(name: str, workers: tuple[int, ...] = (2,)):
    """One small Jacobi point per worker count."""
    return jacobi_sweep_space(
        name, workers=workers, cache_sizes_kb=(2,), policies=("wb",),
        params=JacobiParams(n=6, iterations=1, warmup=0),
    )


def test_census_lists_what_one_experiment_point_never_enters(tmp_path, capsys):
    planted_dir = tmp_path / "planted"
    planted_dir.mkdir()
    (planted_dir / "mod.py").write_text(PLANTED)
    spec = importlib.util.spec_from_file_location(
        "planted_mod", planted_dir / "mod.py"
    )
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)

    def traffic():
        # One 2-worker point through the sweep service, plus one of the
        # two planted functions.
        run_space(tiny_space("census"), backend="inline")
        planted.reached()

    missing = unreached(observe(traffic)[0], roots=(SRC, planted_dir))
    lines = dict(missing)
    # The planted function nothing called is listed, decorator to last
    # line; its called sibling and the excepted __repr__ are not.
    assert lines["planted/mod.py:Holder.never"] == 4
    assert not any(name.startswith("planted/mod.py:reached") for name in lines)
    assert not any(name.endswith("__repr__") for name in lines)
    # What a Jacobi point runs is entered; what it cannot reach is listed.
    assert "repro/pe/processor.py:ProcessorNode.step" not in lines
    assert "repro/dse/executor.py:run_space" not in lines
    assert "repro/apps/cg.py:run_cg" in lines

    baseline = tmp_path / "census.txt"
    assert report(missing, None) == 0
    baseline.write_text(capsys.readouterr().out)
    assert report(missing, baseline) == 0  # its own listing holds it
    capsys.readouterr()
    kept = [line for line in baseline.read_text().splitlines()
            if "Holder.never" not in line]
    baseline.write_text("\n".join(kept) + "\n")
    assert report(missing, baseline) == 1
    assert "planted/mod.py:Holder.never" in capsys.readouterr().err


def test_census_counts_the_values_each_option_takes():
    __, options = observe(
        lambda: run_space(tiny_space("options"), backend="inline")
    )
    # Every field of what the point hands MedeaSystem and run_jacobi, the
    # nested cost model's too; an enum counts as its value.
    assert options["SystemConfig.n_workers"] == {"2"}
    assert options["SystemConfig.cache_policy"] == {"'wb'"}
    assert options["SystemConfig.fp"] == {"'FpCostModel'"}
    assert options["SystemConfig.faults"] == {"None"}
    assert len(options["FpCostModel.use_mul_high"]) == 1
    assert options["JacobiParams.n"] == {"6"}
    assert options["JacobiParams.model"] == {"'hybrid_full'"}
    assert all(len(values) == 1 for values in options.values())

    # A planted second point: exactly the turned axis shows two values.
    __, options = observe(
        lambda: run_space(tiny_space("options2", (2, 3)), backend="inline")
    )
    turned = {name for name, values in options.items() if len(values) > 1}
    assert turned == {"SystemConfig.n_workers"}
    lines = option_lines(options)
    assert [line.split() for line in lines if "n_workers" in line] == [
        ["SystemConfig.n_workers", "2", "distinct", "2,", "3"]
    ]
