"""eMPI: the embedded MPI subset of the paper, plus SM-sync baselines.

Section II-E: "we implemented a subset of MPI APIs called embedded-MPI
(eMPI).  With just three basic primitives, MPI_send(), MPI_receive() and
MPI_barrier() ... a direct communication between cores is possible totally
avoiding in some cases the access to the global-memory."

:mod:`repro.empi.runtime` provides those three primitives (plus the
eMPI collective backend built from them) over the TIE port
operations.  :mod:`repro.empi.smsync` provides the *shared-memory*
synchronization used by the pure-SM baseline: MPMMU lock/unlock sections
and a sense-reversing barrier that spins on an uncached flag — every poll
a full round trip to memory, which is precisely the overhead the hybrid
architecture removes.
"""

from repro.empi.runtime import BarrierAlgorithm, Empi
from repro.empi.smsync import SharedMemoryBarrier, SharedMemoryLock

__all__ = [
    "BarrierAlgorithm",
    "Empi",
    "SharedMemoryBarrier",
    "SharedMemoryLock",
]
