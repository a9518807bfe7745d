"""Design-space exploration: sweep service, area model, Pareto + kill rule.

Section III of the paper explores 168 architecture points (2-15 workers x
2-64 kB x WB/WT) with the Jacobi workload at three problem sizes, then
prunes the (area, speedup) cloud to a Pareto front and applies Agarwal's
"kill rule" (kill a resource increase that buys less than linear
performance).  This package is that harness:

* :mod:`repro.dse.space` — declarative sweep spaces: named axes over the
  architecture config and any app's params dataclass, compiled to a
  keyed worklist;
* :mod:`repro.dse.executor` — the sweep service: :func:`run_space` over
  inline/process backends, bounded retries, progress callbacks, resumable
  schema-hashed caching, the numerical-validation check, and
  :class:`SpaceResults` (``axis``/``grouped``/``get``) for summaries;
* :mod:`repro.dse.runner` — the journaled result store + the Jacobi
  point driver;
* :mod:`repro.dse.registry` — the experiment registry: the one way to run
  an experiment (CLI, benchmarks and tests all call its entries);
* :mod:`repro.dse.experiments` — the registered experiments, each shape
  written once in its ``build_space`` hook;
* :mod:`repro.dse.area` — the TSMC-65nm-calibrated area model;
* :mod:`repro.dse.pareto` — Pareto front + kill-rule pruning;
* :mod:`repro.dse.report` — figure regeneration: series tables and ASCII
  plots that mirror Figs. 6-9.
"""

from repro.dse.area import AreaModel
from repro.dse.executor import PointOutcome, SpaceResults, run_space
from repro.dse.pareto import kill_rule_prune, pareto_front
from repro.dse.registry import Experiment, ExperimentReport, register_experiment
from repro.dse.space import Axis, SweepSpace, Variant, jacobi_sweep_space

__all__ = [
    "AreaModel",
    "Axis",
    "Experiment",
    "ExperimentReport",
    "PointOutcome",
    "SpaceResults",
    "SweepSpace",
    "Variant",
    "jacobi_sweep_space",
    "kill_rule_prune",
    "pareto_front",
    "register_experiment",
    "run_space",
]
