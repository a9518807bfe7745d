"""Parallel Jacobi 2-D solver — the paper's benchmark application.

Three programming models, matching Section III's comparison:

* ``hybrid_full`` — data exchange *and* synchronization via message
  passing: each worker keeps its strip in its private (coherence-free)
  segment, halo rows travel as eMPI messages, barriers are eMPI token
  exchanges.  This is "Medea" in Figs. 6-9.
* ``hybrid_sync`` — data through shared memory with the software
  flush/invalidate protocol; only synchronization uses message passing.
* ``pure_sm`` — data *and* synchronization through shared memory: the
  barrier is a lock-protected counter plus an uncached spin flag, all
  through the MPMMU.

Every variant is validated bit-for-bit against the pure-Python reference in
:mod:`repro.apps.jacobi.reference`.
"""

from repro.apps.jacobi.driver import JacobiParams, JacobiResult, run_jacobi
from repro.apps.jacobi.models import JacobiModel, make_jacobi_program
from repro.apps.jacobi.partition import Strip, next_owner, partition_interior, prev_owner
from repro.apps.jacobi.reference import initial_grid, jacobi_reference, step_reference

__all__ = [
    "JacobiModel",
    "JacobiParams",
    "JacobiResult",
    "Strip",
    "initial_grid",
    "jacobi_reference",
    "make_jacobi_program",
    "next_owner",
    "partition_interior",
    "prev_owner",
    "run_jacobi",
    "step_reference",
]
