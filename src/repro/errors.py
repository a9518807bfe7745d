"""Exception hierarchy for the MEDEA reproduction.

Every error raised by the package derives from :class:`MedeaError` so that
callers can catch simulator-level failures without masking genuine Python
bugs (``TypeError`` and friends propagate untouched).
"""

from __future__ import annotations


class MedeaError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(MedeaError):
    """An invalid or inconsistent :class:`~repro.system.config.SystemConfig`."""


def parse_enum(cls, value, what: str):
    """``value`` as a member of ``cls``, or a ConfigError naming the choices."""
    if isinstance(value, cls):
        return value
    try:
        return cls(str(value).lower())
    except ValueError:
        *head, last = (repr(member.value) for member in cls)
        message = f"unknown {what} {value!r}; use {', '.join(head)} or {last}"
        raise ConfigError(message) from None


class SimulationError(MedeaError):
    """The simulation kernel reached an illegal state."""


class DeadlockError(SimulationError):
    """Nothing can make progress but the stop condition is unmet.

    Raised by :meth:`repro.kernel.simulator.Simulator.run` when every
    component is idle, no wakeup is scheduled and the caller's ``until``
    predicate is still false.  The message carries the run's report
    (``Simulator.report``) to make protocol bugs debuggable.
    """


class WatchdogError(DeadlockError):
    """The no-progress watchdog expired.

    Raised by :class:`repro.kernel.watchdog.ProgressWatchdog`, naming what
    still moved, when no flit entered or left the network and every core
    sat in a WAIT state for a full budget of cycles.  Semantically a
    deadlock (and a subclass of :class:`DeadlockError` so existing handlers
    keep working), but raised *eagerly* from inside a still-live simulation
    — e.g. when reliability retries were exhausted under an unrecoverable
    fault plan — instead of waiting for the kernel's wakeup queue to drain.
    """


class EmpiTimeoutError(MedeaError):
    """An eMPI wait/progress loop exceeded its cycle budget.

    Carries the rank, the stuck operation (with its algorithm, e.g.
    ``iallreduce[ring]``), every still-pending request label and the run's
    report, so a lost-message hang names its victim instead of spinning
    forever.
    """


class FifoError(MedeaError):
    """Illegal operation on a hardware FIFO model."""


class FifoFullError(FifoError):
    """Push attempted on a full bounded FIFO."""


class FifoEmptyError(FifoError):
    """Pop/peek attempted on an empty FIFO."""


class ProtocolError(MedeaError):
    """A NoC/bridge/MPMMU protocol invariant was violated."""


class MemoryAccessError(MedeaError):
    """Out-of-segment or misaligned access to a modelled memory."""


class PacketFormatError(MedeaError):
    """A field does not fit in its bit-accurate packet slot."""


class ProgramError(MedeaError):
    """A PE program yielded an unknown or malformed operation."""


class ValidationError(MedeaError):
    """A run completed but its numbers are wrong.

    Raised by :func:`repro.dse.executor.run_space` for a sweep point whose
    payload reports ``validated: False`` — the message names the space,
    the point's coordinates and the app — and by app drivers whose ranks
    disagree on a value every rank must hold identically.  A report is
    never rendered from such a run.
    """


class SweepError(MedeaError):
    """Sweep points still failed after every bounded retry round.

    Raised by :func:`repro.dse.executor.run_space` with the space name and
    every unrecovered ``(point key, error message)`` pair, so a 168-point
    overnight sweep reports *which* points died instead of crashing on the
    first one.  Points that did complete were already persisted
    incrementally and are served from cache on the next run.
    """

    def __init__(self, space: str, failures: list[tuple[str, str]]) -> None:
        self.space = space
        self.failures = failures
        lines = "\n".join(f"  {key}: {error}" for key, error in failures[:10])
        more = len(failures) - 10
        if more > 0:
            lines += f"\n  ... and {more} more"
        super().__init__(
            f"sweep {space!r}: {len(failures)} point(s) failed after "
            f"retries:\n{lines}"
        )
