"""Ordered execution of simulation grids.

Every job is deterministic given its spec (all randomness derives from
``MachineParams.seed`` via named substreams), so sharding a grid across
worker processes is pure divide-and-conquer: results are bit-identical
to a serial run, whatever the worker count or completion order.

The unit of work is a workload stream: pending cells with the same
:meth:`JobSpec.unit_key` run as one unit
(:func:`~repro.runner.jobs.execute_unit`).  The COMA sweep and sharing
cells of one recording get or capture the trace once and replay all
their bank points in one call; the timing cells of one stream run
their compiled engines in one threaded ``fs_run_set`` call.  CC-NUMA
cells are units of one.  Units run in the spec order of their first
cell.  ``jobs=1`` runs every unit in-process.  ``jobs > 1``
hands the units to a :class:`~concurrent.futures.ProcessPoolExecutor`
of forked workers, one unit per worker in flight.  Either way each
cell lands on its own, at its spec's index:

* **Failure** — the first job that fails fails the run with its own
  exception (``ProtocolError``, ``ConfigurationError``, ...).  Under
  ``keep_going=True`` it lands as a :class:`JobFailure` instead and the
  rest of the grid runs.  A cell with an invalid bank geometry fails
  alone; a capture that raises fails every cell of its unit.  A timing
  cell whose engine raises fails alone.
* **Worker death** — a worker that vanishes mid-job (segfault,
  OOM-kill) breaks the pool; the run raises
  :class:`~repro.common.errors.JobError` naming the jobs in flight, and
  leaves no worker process behind.
* **Resume** — with a manifest directory, every landed job is appended
  to a flushed JSONL manifest (:mod:`repro.runner.manifest`); a
  SIGINT'd run raises :class:`~repro.common.errors.RunInterrupted`
  carrying the run id, and ``resume=run_id`` restores completed
  summaries so only the missing jobs execute.

Worker sizing: the requested ``jobs`` is clamped to the CPUs this
process may use (:func:`repro.core.replay.usable_cpus`: its CPU
affinity within its cgroup CPU quota) and to the number of pending
units.  The count applied is recorded in
:attr:`BatchRunner.effective_jobs`.  A platform without ``fork`` runs
in-process.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError, JobError, RunInterrupted
from repro.core.replay import usable_cpus
from repro.runner.cache import ResultCache
from repro.runner.jobs import JobSpec, execute_unit
from repro.runner.manifest import RunManifest
from repro.runner.summary import GridStats, RunSummary
from repro.system.fast_simulator import is_degradation

#: progress(done_so_far, total, job_result) — called as each job lands
#: (successes, cache/manifest restores, and — under keep_going —
#: failures alike).
ProgressCallback = Callable[[int, int, "JobOutcome"], None]


@dataclass
class JobResult:
    """One finished job: its spec, summary, and provenance."""

    spec: JobSpec
    summary: RunSummary
    elapsed: float
    from_cache: bool = False
    from_manifest: bool = False

    #: Discriminates successes from :class:`JobFailure` in a result list.
    ok: ClassVar[bool] = True


@dataclass
class JobFailure:
    """One job that raised.

    Takes a success's place in the result list under ``keep_going``:
    same ``spec`` / ``elapsed`` / provenance surface, but ``ok`` is
    False and ``summary`` is None.
    """

    spec: JobSpec
    error_type: str
    message: str
    traceback: str = ""
    elapsed: float = 0.0
    from_cache: bool = False
    from_manifest: bool = False

    ok: ClassVar[bool] = False
    summary: ClassVar[None] = None

    def describe(self) -> str:
        return f"{self.spec.describe()}: {self.error_type}"


#: What a result list may contain.
JobOutcome = Union[JobResult, JobFailure]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: The trace store a pool worker's units read and feed (set by
#: :func:`_init_worker`).
_worker_traces = None


def _init_worker(trace_store) -> None:
    """Give a pool worker the runner's trace store.  A Ctrl-C reaches
    the whole process group; only the parent acts on it (it stops the
    pool and raises RunInterrupted), so a worker ignores SIGINT instead
    of dying with a traceback."""
    global _worker_traces
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_traces = trace_store


def _execute(specs: List[JobSpec]) -> Tuple[list, float]:
    from concurrent.futures.process import _ExceptionWithTraceback

    started = time.perf_counter()
    outcomes = execute_unit(specs, trace_store=_worker_traces)
    elapsed = time.perf_counter() - started
    # A failed cell's exception crosses to the parent the way a raised
    # one would: with the worker's traceback as its cause.
    return [
        _ExceptionWithTraceback(outcome, outcome.__traceback__)
        if isinstance(outcome, Exception) else outcome
        for outcome in outcomes
    ], elapsed


def _units(pending: List[Tuple[int, JobSpec]]) -> List[List[Tuple[int, JobSpec]]]:
    """Pending cells grouped into units, in the spec order of each
    unit's first cell: cells with one :meth:`~JobSpec.unit_key` form
    one unit, a cell without one is a unit of one."""
    units: List[List[Tuple[int, JobSpec]]] = []
    by_key = {}
    for index, spec in pending:
        key = spec.unit_key()
        if key is None:
            units.append([(index, spec)])
            continue
        unit = by_key.setdefault(key, [])
        if not unit:
            units.append(unit)
        unit.append((index, spec))
    return units


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class BatchRunner:
    """Runs :class:`JobSpec` grids, results in spec order.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs everything
        in-process.  Clamped to :func:`~repro.core.replay.usable_cpus`
        and the pending-unit count.
    cache:
        A :class:`ResultCache` consulted before and fed after every
        simulation; ``None`` disables persistence.
    progress:
        Optional callback invoked (in the parent) once per landed job,
        including cache/manifest restores and (under ``keep_going``)
        failures.
    trace_store:
        A :class:`~repro.runner.traces.TraceStore` persisting recorded
        tap traces across runs; ``None`` keeps each recording in memory
        for its unit only, so a grid still captures each hierarchy
        once, just without cross-run reuse.
    keep_going:
        Record failures as :class:`JobFailure` results and finish the
        grid instead of failing fast on the first one.
    manifest_dir:
        Directory for append-only run manifests; ``None`` (default)
        disables manifests and resumption.
    resume:
        A prior run id whose manifest's completed jobs are restored
        instead of re-executed.  Requires ``manifest_dir``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        trace_store=None,
        keep_going: bool = False,
        manifest_dir=None,
        resume: Optional[str] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.trace_store = trace_store
        self.keep_going = keep_going
        self.manifest_dir = manifest_dir
        self.resume = resume
        if resume is not None and manifest_dir is None:
            raise ConfigurationError("resume requires a manifest directory")
        #: Simulations actually executed (cache hits excluded) — the
        #: "zero new simulations on a warm cache" observable.
        self.simulations_run = 0
        self.cache_hits = 0
        #: Worker processes actually used by the last :meth:`run` after
        #: clamping to the CPU budget and the pending-unit count (1 = ran
        #: in-process).
        self.effective_jobs = 1
        #: Counters for the last :meth:`run`.
        self.stats = GridStats()
        #: Manifest id of the last :meth:`run` (None without a manifest).
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[JobSpec]) -> List[JobOutcome]:
        """Execute every spec; results come back in submission order.

        Each entry is a :class:`JobResult`, or — only under
        ``keep_going`` — a :class:`JobFailure`.  Without ``keep_going``
        the first job to fail raises its own exception.  SIGINT flushes
        the manifest and raises
        :class:`~repro.common.errors.RunInterrupted` with the resume
        hint.
        """
        specs = list(specs)
        total = len(specs)
        results: List[Optional[JobOutcome]] = [None] * total
        done = 0
        run_started = time.perf_counter()
        stats = self.stats = GridStats(total=total)
        store_base = self._store_counters()

        manifest = None
        if self.manifest_dir is not None:
            if self.resume is not None:
                manifest = RunManifest.load(self.manifest_dir, self.resume, total=total)
            else:
                manifest = RunManifest.create(self.manifest_dir, total=total)
            self.run_id = manifest.run_id

        def land(index: int, outcome: JobOutcome) -> None:
            nonlocal done
            results[index] = outcome
            done += 1
            stats.completed += outcome.ok
            stats.job_seconds += outcome.elapsed
            if self.progress is not None:
                self.progress(done, total, outcome)

        def record(index: int, summary: RunSummary, elapsed: float) -> None:
            spec = specs[index]
            self.simulations_run += 1
            stats.simulations += 1
            backend = getattr(summary, "backend", None)
            if backend:
                stats.backends[backend] = stats.backends.get(backend, 0) + 1
            reason = getattr(summary, "fallback_reason", None)
            if is_degradation(reason):
                stats.fallback_reasons[reason] = (
                    stats.fallback_reasons.get(reason, 0) + 1
                )
            if self.cache is not None:
                self.cache.put(spec, summary, elapsed=elapsed)
            if manifest is not None:
                manifest.record_success(spec, summary, elapsed=elapsed)
            land(index, JobResult(spec, summary, elapsed=elapsed))

        def heartbeat(unit) -> None:
            if manifest is not None:
                for _, spec in unit:
                    manifest.record_heartbeat(spec, workers=self.effective_jobs)

        def fail(index: int, exc: Exception, elapsed: float = 0.0) -> None:
            spec = specs[index]
            failure = JobFailure(
                spec=spec,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback="".join(_traceback.format_exception(
                    type(exc), exc, exc.__traceback__
                )),
                elapsed=elapsed,
            )
            stats.failed += 1
            stats.failure_labels.append(failure.describe())
            if manifest is not None:
                manifest.record_failure(spec, failure)
            if not self.keep_going:
                raise exc
            land(index, failure)

        def land_unit(unit, outcomes, elapsed: float) -> None:
            """Land each cell of a finished unit; each cell's elapsed
            time is an even share of the unit's."""
            share = elapsed / len(unit)
            for (index, _), outcome in zip(unit, outcomes):
                if isinstance(outcome, Exception):
                    fail(index, outcome, share)
                else:
                    record(index, outcome, share)

        try:
            pending: List[Tuple[int, JobSpec]] = []
            for index, spec in enumerate(specs):
                if manifest is not None and manifest.completed:
                    payload = manifest.completed.get(spec.content_hash())
                    if payload is not None:
                        stats.from_manifest += 1
                        land(index, JobResult(
                            spec, RunSummary.from_dict(payload),
                            elapsed=0.0, from_manifest=True,
                        ))
                        continue
                cached = self.cache.get(spec) if self.cache is not None else None
                if cached is not None:
                    self.cache_hits += 1
                    stats.from_cache += 1
                    if manifest is not None:
                        manifest.record_success(spec, cached, elapsed=0.0)
                    land(index, JobResult(spec, cached, elapsed=0.0, from_cache=True))
                else:
                    pending.append((index, spec))

            units = _units(pending)
            workers = min(self.jobs, len(units))
            if workers > 1:
                workers = min(workers, usable_cpus())
            # Record the clamp only when the CPU budget bound us, not
            # when there were simply fewer pending units than requested
            # workers.
            if self.jobs > workers and len(units) > workers:
                stats.requested_jobs = self.jobs
            if units:
                if workers > 1 and _fork_available():
                    self.effective_jobs = workers
                    self._run_pool(units, workers, land_unit, heartbeat)
                else:
                    self.effective_jobs = 1
                    self._run_serial(units, land_unit, heartbeat)
        except KeyboardInterrupt:
            raise RunInterrupted(self.run_id, completed=done, total=total) from None
        finally:
            stats.wall_seconds = time.perf_counter() - run_started
            stats.workers = self.effective_jobs
            quarantined, evicted, corrupt = self._store_counters()
            stats.store_quarantined = quarantined - store_base[0]
            stats.store_evictions = evicted - store_base[1]
            stats.trace_corrupt_dropped = corrupt - store_base[2]
            if manifest is not None:
                manifest.close()

        return results  # type: ignore[return-value]

    def _store_counters(self) -> Tuple[int, int, int]:
        """(quarantined, evicted, corrupt-traces) across this runner's
        stores — sampled before/after a run to attribute the delta."""
        stores = [store for store in (self.cache, self.trace_store) if store is not None]
        return (
            sum(store.quarantined for store in stores),
            sum(store.evictions for store in stores),
            self.trace_store.corrupt_dropped if self.trace_store is not None else 0,
        )

    # ------------------------------------------------------------------
    def _run_serial(self, units, land_unit, heartbeat) -> None:
        for unit in units:
            heartbeat(unit)
            started = time.perf_counter()
            outcomes = execute_unit([spec for _, spec in unit], trace_store=self.trace_store)
            land_unit(unit, outcomes, time.perf_counter() - started)

    def _run_pool(self, units, workers: int, land_unit, heartbeat) -> None:
        # Imported here: a serial run, every benchmark workload's, does
        # not pay the pool's modules in start-up time and memory.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        queue = deque(units)
        running = {}  # future -> unit
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(self.trace_store,),
        )
        try:
            while queue or running:
                while queue and len(running) < workers:
                    unit = queue.popleft()
                    heartbeat(unit)
                    running[pool.submit(_execute, [spec for _, spec in unit])] = unit
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(finished, key=lambda f: running[f][0][0]):
                    try:
                        outcomes, elapsed = future.result()
                    except BrokenProcessPool as exc:
                        labels = ", ".join(
                            spec.describe()
                            for unit in sorted(running.values())
                            for _, spec in unit
                        )
                        raise JobError(
                            f"a worker process died with these jobs in flight: {labels}"
                        ) from exc
                    except Exception as exc:
                        # The unit's result could not come back: every
                        # cell fails with the same error.
                        unit = running.pop(future)
                        land_unit(unit, [exc] * len(unit), 0.0)
                        continue
                    land_unit(running.pop(future), outcomes, elapsed)
        finally:
            # Whatever ends the loop — completion, a failure, a dead
            # worker or SIGINT — the units not yet started are dropped
            # and every worker is joined.
            pool.shutdown(wait=True, cancel_futures=True)
