"""Function-level census of what the repo's *traffic* reaches.

Traffic is ``list`` and every registered experiment at quick scale (``python
-m repro <name> --jobs 1 --backend inline --fresh``), every trace/analyze
workload through both commands with ``--heatmap``, and every BENCHMARK.json
workload (``run.py --workload <name> --quick``), all in this process under
``sys.setprofile`` (~4 min); tests and examples are not traffic.  Prints each
``def`` in ``src/repro`` nothing entered (nested ones too, first decorator to
end of body, ``__repr__`` excepted) with its line count, then the total.
``--baseline benchmarks/traffic_census.txt`` (this script's committed output)
exits 1 when an unlisted function is unreached: wire it, delete it or list it.
``--options`` prints instead ``Class.field  n distinct  values`` for each field
of every dataclass the traffic hands ``MedeaSystem`` or a ``repro.apps``
``run_*`` driver, and of the config and params of every point of each
registered experiment at full scale, compiled but not run, so a value only
full scale sets counts too (committed as ``benchmarks/options_census.txt``;
CI diffs it).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import enum
import json
import runpy
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def definitions(node: ast.AST, prefix: str = ""):
    """Yield ``(first line, qualified name, line count)`` of each def below node."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}" if prefix else child.name
            if not isinstance(child, ast.ClassDef) and child.name != "__repr__":
                first = min(d.lineno for d in [child, *child.decorator_list])
                yield first, name, child.end_lineno - first + 1
        yield from definitions(child, name)


def observe(traffic, spaces=()) -> tuple[set, dict[str, set[str]]]:
    """Run ``traffic()`` under ``sys.setprofile``: the code objects it entered,
    and ``Class.field`` -> the values (as text) of the options it handed over,
    then of the config and params of every point of ``spaces`` (not run)."""
    codes, options = set(), {}

    def record(owner) -> None:
        for field in dataclasses.fields(owner):
            value = getattr(owner, field.name)
            if dataclasses.is_dataclass(value):
                record(value)
                value = type(value).__name__
            elif isinstance(value, enum.Enum):
                value = value.value  # "wb" and WritePolicy.WRITE_BACK are one value
            key = f"{type(owner).__name__}.{field.name}"
            options.setdefault(key, set()).add(repr(value))

    def on_call(frame, event, _) -> None:
        if event != "call":
            return
        code = frame.f_code
        codes.add(code)
        name, path = code.co_name, code.co_filename
        if (name == "__init__" and path.endswith("repro/system/medea.py")
                or name.startswith("run_") and "/repro/apps/" in path):
            for argument in frame.f_locals.values():
                if dataclasses.is_dataclass(argument):
                    record(argument)

    previous = sys.getprofile()
    sys.setprofile(on_call)
    try:
        traffic()
    finally:
        sys.setprofile(previous)
    for space in spaces:
        for point in space.points():
            record(point.config)
            if dataclasses.is_dataclass(point.params):
                record(point.params)
    return codes, options


def unreached(codes: set, roots=(SRC,)) -> list[tuple[str, int]]:
    """Defs under ``roots`` whose code is not in ``codes``: sorted (name, lines)."""
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    return sorted(
        (f"{path.relative_to(root.parent)}:{name}", lines)
        for root in map(Path.resolve, roots) for path in root.rglob("*.py")
        for first, name, lines in definitions(ast.parse(path.read_text()))
        if (str(path), first) not in entered
    )


def traffic(out: Path) -> None:
    """Every experiment, command and benchmark workload, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import main
    from repro.dse.experiments import REGISTRY
    from repro.telemetry.workloads import TRACE_WORKLOADS

    main(["list"])
    for name in sorted(REGISTRY):
        main([name, "--jobs", "1", "--backend", "inline", "--fresh", "--out", str(out)])
    for name in sorted(TRACE_WORKLOADS):
        main(["trace", name, "--heatmap", "--out", str(out / "trace.json")])
        main(["analyze", name, "--heatmap", "--out", str(out / "report.json")])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = ROOT / benchmark["command"][-1]
    sys.path.insert(0, str(script.parent))  # run.py imports its siblings
    for workload in benchmark["workloads"]:
        sys.argv = [str(script), "--workload", workload["name"], "--quick"]
        with contextlib.suppress(SystemExit):
            runpy.run_path(str(script), run_name="__main__")


def full_scale():
    """Every space of each registered experiment's ``build_space(True)``."""
    from repro.dse.experiments import REGISTRY

    for name in sorted(REGISTRY):
        built = REGISTRY[name].build_space(True)
        yield from built if isinstance(built, Sequence) else [built]


def report(missing: list[tuple[str, int]], baseline: Path | None) -> int:
    """Print the listing; 1 when ``baseline`` lacks an unreached function."""
    for name, lines in missing:
        print(f"{lines:5d}  {name}")
    print(f"{sum(n for __, n in missing):5d}  total, {len(missing)} functions")
    known = baseline.read_text().split() if baseline else dict(missing)
    new = [name for name, __ in missing if name not in known]
    for name in new:
        print(f"unreached and not in {baseline}: {name}", file=sys.stderr)
    return 1 if new else 0


def option_lines(options: dict[str, set[str]]) -> list[str]:
    """``Class.field  n distinct  values``, fields and values sorted."""
    return [
        f"{name:34} {len(values):2d} distinct  "
        + ", ".join(sorted(values, key=lambda text: (len(text), text)))
        for name, values in sorted(options.items())
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, help="committed listing to hold to")
    parser.add_argument("--options", action="store_true", help="list option values")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out, open(f"{out}/stdout", "w") as sink:
        with contextlib.redirect_stdout(sink):
            codes, options = observe(lambda: traffic(Path(out)), full_scale())
    if args.options:
        print("\n".join(option_lines(options)))
    else:
        sys.exit(report(unreached(codes), args.baseline))
