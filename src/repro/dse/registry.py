"""The experiment registry: declarative entry points the CLI introspects.

An :class:`Experiment` names one artifact, carries the help line the CLI
listing shows, and plugs into the sweep service through two hooks —
``build_space(full)`` returns the experiment's
:class:`~repro.dse.space.SweepSpace` (or a list of them), and
``summarize(run)`` turns the executed results into an
:class:`ExperimentReport`.  Calling the object runs the whole pipeline:

    report = REGISTRY["fig6"](full=True, jobs=8, cache_dir="results")

:data:`REGISTRY` is the only way to run an experiment — the CLI, the
benchmark suite and the tests all call its entries — so every one of them
shares pool wiring, resumable caching, retry policy, backend selection
and the numerical-validation check.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.dse.executor import SpaceResults, run_space
from repro.dse.space import SweepSpace


def full_scale_requested() -> bool:
    """Does the environment ask for the paper's full axes (``MEDEA_FULL``)?"""
    return os.environ.get("MEDEA_FULL", "") not in ("", "0")


@dataclass
class ExperimentReport:
    """Rendered outcome of one experiment."""

    experiment: str
    full_scale: bool
    text: str
    series: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def save(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / f"{self.experiment}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.text)
        return path


@dataclass
class ExperimentRun:
    """What ``summarize`` receives: the executed spaces plus their context."""

    name: str
    full: bool
    spaces: list[SweepSpace]
    results: list[SpaceResults]

    def result(self, index: int = 0) -> SpaceResults:
        return self.results[index]


@dataclass
class Experiment:
    """One registered paper artifact: name, help line, and the two hooks.

    ``build_space(full)`` may return one space or a sequence (executed in
    order — later spaces see the earlier ones' warm cache);
    ``summarize(run)`` builds the report from the results.
    ``default_scale`` is what the CLI listing shows for a bare invocation
    (the ``MEDEA_FULL`` environment variable still upgrades it).
    """

    name: str
    help: str
    build_space: Callable[[bool], SweepSpace | Sequence[SweepSpace]]
    summarize: Callable[[ExperimentRun], ExperimentReport]
    default_scale: str = "quick"

    def __call__(
        self,
        full: bool | None = None,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        backend: str | None = None,
        resume: bool = True,
        retries: int = 0,
        progress: bool = False,
    ) -> ExperimentReport:
        """Run the experiment end to end and return its report.

        ``full=None`` defers to ``MEDEA_FULL`` (then ``default_scale``);
        the remaining arguments configure the sweep service and default
        to the classic behaviour (auto-sized pool, resume from cache).
        """
        started = time.perf_counter()
        if full is None:
            full = full_scale_requested() or self.default_scale == "full"
        built = self.build_space(full)
        spaces = list(built) if isinstance(built, Sequence) else [built]
        results = [
            run_space(
                space, backend=backend, jobs=jobs, cache_dir=cache_dir,
                resume=resume, retries=retries, progress=progress,
            )
            for space in spaces
        ]
        report = self.summarize(
            ExperimentRun(name=self.name, full=full, spaces=spaces,
                          results=results)
        )
        report.wall_seconds = time.perf_counter() - started
        return report


#: Every registered experiment, keyed by name: the registry the CLI
#: introspects for choices and the ``list`` table.
REGISTRY: dict[str, Experiment] = {}


def register_experiment(
    name: str,
    help: str,  # noqa: A002 - mirrors argparse's vocabulary
    build_space: Callable[[bool], SweepSpace | Sequence[SweepSpace]],
    summarize: Callable[[ExperimentRun], ExperimentReport],
    default_scale: str = "quick",
) -> Experiment:
    """Create and register an :class:`Experiment` (last registration wins)."""
    experiment = Experiment(
        name=name, help=help, build_space=build_space, summarize=summarize,
        default_scale=default_scale,
    )
    REGISTRY[name] = experiment
    return experiment
