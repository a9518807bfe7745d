"""The journaled sweep result store and the Jacobi point driver.

* :class:`ResultCache` — one versioned JSON store per sweep name, with an
  append-only JSONL *journal* beside it.  The executor service persists
  every completed point to the journal as it finishes (crash-safe: a torn
  final line is ignored on load), and :meth:`ResultCache.save` compacts
  journal + store into the JSON file through a temp file + rename, so a
  kill at any moment leaves a loadable store.  A sweep killed at point k
  resumes at point k+1.
* :func:`jacobi_app` — the app driver of the Jacobi-shaped spaces
  (:func:`repro.dse.space.jacobi_sweep_space`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import __version__ as _repro_version
from repro.apps.jacobi.driver import run_jacobi


def jacobi_app(config, params) -> dict:
    """Evaluate one Jacobi point: the app driver every backend runs."""
    result = run_jacobi(config, params)
    return {
        "cycles_per_iteration": result.cycles_per_iteration,
        "iteration_cycles": result.iteration_cycles,
        "total_cycles": result.total_cycles,
        "validated": result.validated,
    }


#: Bump whenever a change can alter simulated cycle counts (kernel/NoC/
#: timing-model changes) or the cache-key/JSON layout: cached sweep points
#: are only trusted when they were produced by the same cache version, so
#: a hot-path overhaul can never silently serve stale figures.  Version 5:
#: config and params keys lost the fields no run ever set; the Jacobi
#: payload no longer repeats its point's coordinates.
CACHE_VERSION = f"5:{_repro_version}"


class ResultCache:
    """One JSON store + JSONL journal per sweep name, keyed by point.

    The compact file embeds :data:`CACHE_VERSION`; on load, any mismatch
    (including the version-less seed layout and a file that does not
    decode) discards its points wholesale.  The journal holds points
    persisted *during* a sweep — :meth:`append` writes one line per
    completed point, so an interrupted run keeps everything it finished.
    Journal lines are version-stamped too, and a torn final line (the
    crash case) is skipped silently.  :meth:`save` compacts journal +
    store into the JSON file and removes the journal.  Payloads are plain
    JSON dicts, whatever the app.
    """

    def __init__(self, directory: str | Path, name: str) -> None:
        self.path = Path(directory) / f"{name}.json"
        self.journal_path = Path(directory) / f"{name}.journal.jsonl"
        self._data: dict[str, dict] = {}
        self.discarded_stale = False
        self.journal_points = 0
        if self.path.exists():
            try:
                raw = json.loads(self.path.read_text())
            except json.JSONDecodeError:
                raw = None
            points = (
                raw.get("points")
                if isinstance(raw, dict)
                and raw.get("__cache_version__") == CACHE_VERSION
                else None
            )
            if isinstance(points, dict):
                self._data = points
            else:
                self.discarded_stale = True
        if self.journal_path.exists():
            self._replay_journal()

    def _replay_journal(self) -> None:
        for line in self.journal_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn final line from a killed sweep: ignore the tail
            if entry.get("v") != CACHE_VERSION:
                continue
            self._data[entry["key"]] = entry["payload"]
            self.journal_points += 1

    def get_raw(self, key: str) -> dict | None:
        return self._data.get(key)

    def append(self, key: str, payload: dict) -> None:
        """Persist one completed point durably, right now.

        The incremental half of resume semantics: one JSON line appended
        and flushed per point, so whatever a killed sweep already computed
        survives to the next run.
        """
        self._data[key] = payload
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"v": CACHE_VERSION, "key": key, "payload": payload}
        with self.journal_path.open("a") as journal:
            journal.write(json.dumps(entry) + "\n")

    def save(self) -> None:
        """Compact store + journal into the versioned JSON file."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"__cache_version__": CACHE_VERSION, "points": self._data}
        # Never a half-written store: the journal is only removed once the
        # complete file is in place under its final name.
        scratch = self.path.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(scratch, self.path)
        if self.journal_path.exists():
            self.journal_path.unlink()
        self.journal_points = 0
