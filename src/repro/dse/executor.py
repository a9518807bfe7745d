"""Sweep-as-a-service: pluggable executors with resumable, keyed caching.

The paper ran its 168-configuration design-space exploration overnight on
five dual-Xeon servers; this module is the batch service that absorbs the
same kind of sweep traffic for *any* experiment.  A declarative
:class:`~repro.dse.space.SweepSpace` compiles to a worklist of keyed
points; :func:`run_space` drives that worklist through a swappable
:class:`Executor` backend and returns the payloads in point order:

* ``inline`` — evaluate in the calling process, one point at a time (the
  deterministic baseline: ``--backend inline --jobs 1`` reproduces the
  pool bit for bit);
* ``process`` — a :mod:`multiprocessing` pool drained with
  ``imap_unordered`` (the default: simulation is CPU-bound Python, so
  only processes run points in parallel).

Every point's wall time and failure (message, not a crashed sweep) is
captured; failed points are retried up to a bounded number of rounds
before the sweep raises :class:`~repro.errors.SweepError` naming every
unrecovered key.  A point whose payload reports ``validated: False``
raises :class:`~repro.errors.ValidationError` naming the space, the
coordinates and the app — the one numerical-validation check every
experiment shares.  Completed points persist *incrementally* through the
journaled :class:`~repro.dse.runner.ResultCache` — a sweep killed at
point k resumes at point k+1, not at zero — and cache keys carry the
space's schema hash, so a changed axis definition or dataclass migration
can never serve stale rows.  Progress is reported through a callback (or
the classic stderr ticker) as each point completes.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.dse.runner import ResultCache
from repro.dse.space import SweepSpace, WorkItem
from repro.errors import ConfigError, SweepError, ValidationError

#: Progress callback signature: (points done, points pending in total).
ProgressFn = Callable[[int, int], None]


def _run_work(item: WorkItem) -> tuple[WorkItem, dict | None, float, str | None]:
    """Evaluate one point; the body every backend's workers run.

    Captures the point's wall time and turns an app exception into an
    error string (the service decides whether to retry); interrupts
    (``KeyboardInterrupt``/``SystemExit``) propagate so a killed sweep
    dies instead of recording a bogus failure.
    """
    started = time.perf_counter()
    try:
        payload = item.app(item.config, item.params)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported, retried, re-raised
        payload = None
        error = f"{type(exc).__name__}: {exc}"
    return item, payload, time.perf_counter() - started, error


class InlineExecutor:
    """Evaluate points one by one in the calling process."""

    name = "inline"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = 1

    def imap_unordered(self, fn: Callable, items: Iterable) -> Iterator:
        return map(fn, items)

    def close(self) -> None:
        pass


class ProcessExecutor:
    """A :mod:`multiprocessing` pool drained with ``imap_unordered``."""

    name = "process"

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._pool = multiprocessing.Pool(jobs)

    def imap_unordered(self, fn: Callable, items: Iterable) -> Iterator:
        return self._pool.imap_unordered(fn, items)

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


EXECUTOR_BACKENDS: dict[str, Callable[[int], object]] = {
    "inline": InlineExecutor,
    "process": ProcessExecutor,
}


def get_executor(backend: str, jobs: int):
    """Instantiate a backend by name (``inline``/``process``)."""
    try:
        factory = EXECUTOR_BACKENDS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown executor backend {backend!r}; choose from "
            f"{sorted(EXECUTOR_BACKENDS)}"
        ) from None
    return factory(jobs)


def resolve_backend(backend: str | None, jobs: int) -> str:
    """Pick a backend: explicit choice wins; one job runs inline."""
    if backend is not None:
        return backend
    return "inline" if jobs == 1 else "process"


def auto_jobs(n_pending: int, jobs: int | None) -> int:
    """Pool sizing: requested, else cpu-1 capped at the pending count."""
    if jobs is not None:
        return max(1, jobs)
    return max(1, min(n_pending, (os.cpu_count() or 2) - 1))


@dataclass
class PointOutcome:
    """One evaluated (or cache-served) sweep point."""

    item: WorkItem
    payload: dict
    wall_seconds: float
    attempts: int
    from_cache: bool

    @property
    def coords(self) -> dict:
        return self.item.coords_dict


class SpaceResults:
    """The outcome of one space's sweep, addressable by axis coordinates.

    ``outcomes`` is in point order (the space's axis declaration order).
    Summaries read the space's shape back from here instead of restating
    it: :meth:`axis` lists an axis's labels, :meth:`grouped` folds the
    points into report rows, :meth:`get` looks one payload up by its
    exact coordinate labels.
    """

    def __init__(self, space: SweepSpace, outcomes: list[PointOutcome]) -> None:
        self.space = space
        self.outcomes = outcomes
        self._by_coords = {
            tuple(sorted(outcome.item.coords)): outcome for outcome in outcomes
        }

    def get(self, **coords) -> dict:
        """Payload of the point at exactly these axis labels."""
        return self.outcome(**coords).payload

    def outcome(self, **coords) -> PointOutcome:
        key = tuple(sorted(coords.items()))
        try:
            return self._by_coords[key]
        except KeyError:
            raise KeyError(
                f"space {self.space.name!r} has no point at {coords!r}"
            ) from None

    def payloads(self) -> list[dict]:
        return [outcome.payload for outcome in self.outcomes]

    def axis(self, name: str) -> tuple:
        """The labels of axis ``name``, in declaration order."""
        for axis in self.space.axes:
            if axis.name == name:
                return tuple(axis.label_of(value) for value in axis.values)
        raise KeyError(f"space {self.space.name!r} has no axis {name!r}")

    def grouped(self, *row_axes: str, across: str) -> list[tuple[tuple, dict]]:
        """Fold the points into rows: ``(row labels, {across label: payload})``.

        One entry per distinct combination of ``row_axes`` labels, in
        point order of first appearance, each mapping the labels of the
        ``across`` axis to payloads in declaration order; pruned points
        are simply absent.  Together the named axes must be all of the
        space's axes, or two points would land in one cell.
        """
        names = [axis.name for axis in self.space.axes]
        if sorted((*row_axes, across)) != sorted(names):
            raise KeyError(
                f"space {self.space.name!r}: grouped() must name each of "
                f"the axes {names} once, got {(*row_axes, across)!r}"
            )
        rows: dict[tuple, dict] = {}
        for outcome in self.outcomes:
            coords = outcome.coords
            row = tuple(coords[name] for name in row_axes)
            rows.setdefault(row, {})[coords[across]] = outcome.payload
        return list(rows.items())

    @property
    def n_cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def n_computed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.from_cache)


def stderr_progress(done: int, total: int) -> None:
    """The classic one-line sweep ticker (what ``progress=True`` means)."""
    print(f"\r  sweep: {done}/{total} points", end="", file=sys.stderr)
    if done == total:
        print(file=sys.stderr)


def run_space(
    space: SweepSpace,
    *,
    backend: str | None = None,
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    resume: bool = True,
    retries: int = 0,
    progress: bool | ProgressFn = False,
) -> SpaceResults:
    """Run every point of ``space`` through an executor backend.

    With a ``cache_dir``, previously persisted points are served without
    recomputation (unless ``resume=False``, which recomputes everything
    but still persists), and each newly computed point is journaled to
    disk *as it completes* — a sweep killed mid-run resumes with only the
    remainder.  Failed points are retried up to ``retries`` extra rounds;
    whatever still fails raises :class:`~repro.errors.SweepError` naming
    every unrecovered point.  Results come back in point order regardless
    of backend scheduling, so ``--backend inline --jobs 1`` reproduces a
    pool run exactly.
    """
    items = space.points()
    cache = ResultCache(cache_dir, space.name) if cache_dir is not None else None

    outcomes: dict[str, PointOutcome] = {}
    pending: list[WorkItem] = []
    for item in items:
        if item.key in outcomes:
            continue  # pruned spaces cannot repeat keys; belt-and-braces
        payload = cache.get_raw(item.key) if cache is not None and resume else None
        if payload is not None:
            outcomes[item.key] = PointOutcome(
                item=item, payload=payload, wall_seconds=0.0, attempts=0,
                from_cache=True,
            )
        elif not any(queued.key == item.key for queued in pending):
            pending.append(item)

    report: ProgressFn | None
    if progress is True:
        report = stderr_progress
    elif callable(progress):
        report = progress
    else:
        report = None

    if pending:
        jobs_now = auto_jobs(len(pending), jobs)
        backend_name = resolve_backend(backend, jobs_now)
        done = 0
        round_items = pending
        attempts: dict[str, int] = {}
        failures: list[tuple[WorkItem, str]] = []
        for _round in range(retries + 1):
            failures = []
            executor = get_executor(backend_name, min(jobs_now, len(round_items)))
            try:
                for item, payload, wall, error in executor.imap_unordered(
                    _run_work, round_items
                ):
                    attempts[item.key] = attempts.get(item.key, 0) + 1
                    if error is not None:
                        failures.append((item, error))
                        continue
                    outcomes[item.key] = PointOutcome(
                        item=item, payload=payload, wall_seconds=wall,
                        attempts=attempts[item.key], from_cache=False,
                    )
                    if cache is not None:
                        cache.append(item.key, payload)
                    done += 1
                    if report is not None:
                        report(done, len(pending))
            finally:
                executor.close()
            if not failures:
                break
            round_items = [item for item, __ in failures]
        if failures:
            raise SweepError(space.name, [
                (item.key, error) for item, error in failures
            ])
        if cache is not None:
            cache.save()

    ordered = [outcomes[item.key] for item in items]
    for outcome in ordered:
        if not outcome.payload.get("validated", True):
            raise ValidationError(
                f"space {space.name!r}: numerical validation failed at "
                f"{outcome.coords} (app {space.app_id!r})"
            )
    return SpaceResults(space, ordered)
