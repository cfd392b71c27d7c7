"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything coming out of the simulator with one handler while
still distinguishing configuration mistakes from runtime protocol
violations.
"""


class ReproError(Exception):
    """Base class of all exceptions raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A :class:`~repro.common.params.MachineParams` (or workload)
    configuration is internally inconsistent — e.g. a cache size that is
    not a multiple of ``block * assoc``, or a page smaller than an
    attraction-memory block."""


class CapacityError(ReproError):
    """A COMA global set ran out of slots for a master copy.

    In a real COMA the page daemon would swap a page out; the simulator
    preloads all pages (as the paper does) and treats global-set pressure
    reaching 1 as a hard error."""


class ProtocolError(ReproError):
    """The coherence protocol reached a state that should be unreachable
    (e.g. two Exclusive copies of one block).  Always indicates a bug, not
    a workload problem."""


class JobError(ReproError):
    """A batch run lost a worker process mid-job (segfault, OOM-kill):
    the message names the jobs that were in flight."""


class RunInterrupted(ReproError):
    """A batch run was interrupted (SIGINT) after a clean shutdown.

    Completed jobs were flushed to the run manifest before this was
    raised, so the sweep can be resumed with ``--resume run_id``.
    """

    def __init__(self, run_id, completed: int, total: int) -> None:
        self.run_id = run_id
        self.completed = completed
        self.total = total
        hint = f"; resume with --resume {run_id}" if run_id else ""
        super().__init__(
            f"interrupted after {completed}/{total} jobs{hint}"
        )

