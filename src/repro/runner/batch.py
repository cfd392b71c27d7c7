"""Supervised, fault-tolerant execution of simulation grids.

Every job is deterministic given its spec (all randomness derives from
``MachineParams.seed`` via named substreams), so sharding a grid across
worker processes is pure divide-and-conquer: results are bit-identical
to a serial run, whatever the worker count or completion order.

The runner is a *supervisor*, not a bare pool.  Each worker slot is one
forked process connected by its own pipe; the parent dispatches one job
at a time, so it always knows which job a dead or wedged worker was
holding.  On top of that sit the recovery paths:

* **Failure capture** — a job that raises comes back as a structured
  :class:`JobFailure` (exception type, message, traceback, attempt
  count) instead of tearing down the grid.  By default a deterministic
  failure (``ConfigurationError``, ``ProtocolError``, ...) still fails
  the run fast — rerunning it would fail identically — while
  ``keep_going=True`` records it and completes the rest of the grid.
* **Retries** — *transient* failures (``OSError``, ``TraceError``,
  worker death, timeouts; see :func:`repro.common.errors.is_transient`)
  are retried up to ``retries`` times with exponential backoff and
  deterministic jitter.  Deterministic failures are never retried.
* **Timeouts** — ``timeout`` seconds of wall clock per job attempt;
  an overrunning worker is killed and respawned, and the job counts as
  a transient failure (a hung simulation cannot stall the grid).
  Enforced only when worker processes are in play (``jobs > 1``).
* **Worker death** — a worker that vanishes mid-job (segfault,
  OOM-kill, injected crash) is detected through its closed pipe; the
  slot respawns and the lost job is re-dispatched.
* **Resume** — with a manifest directory, every landed job is appended
  to a flushed JSONL manifest (:mod:`repro.runner.manifest`); a
  SIGINT'd run shuts its workers down cleanly and raises
  :class:`~repro.common.errors.RunInterrupted` carrying the run id, and
  ``resume=run_id`` restores completed summaries so only the missing
  jobs execute.
* **Chaos** — a :class:`~repro.runner.faults.FaultPlan` deterministically
  injects crashes, hangs, transient errors, and corrupt cache/trace
  bytes at chosen job indices; the test suite drives every path above
  through it.

Worker sizing: the requested ``jobs`` is clamped to ``os.cpu_count()``
and to the number of pending jobs — oversubscribing cores only adds
process startup and scheduler churn.  The clamp actually applied is
recorded in :attr:`BatchRunner.effective_jobs`.  ``jobs=1`` (or a
platform without ``fork``) runs in-process with the same capture,
retry, and resume semantics (timeout excepted).
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import (
    ConfigurationError,
    JobError,
    RunInterrupted,
    is_transient,
)
from repro.runner.cache import ResultCache
from repro.runner.jobs import JobSpec
from repro.runner.manifest import RunManifest
from repro.runner.summary import GridStats, RunSummary
from repro.system.fast_simulator import is_degradation

#: progress(done_so_far, total, job_result) — called as each job lands
#: (successes, cache/manifest restores, and — under keep_going —
#: failures alike).
ProgressCallback = Callable[[int, int, "JobOutcome"], None]

#: Clean-shutdown join budget before escalating to SIGKILL.
_JOIN_TIMEOUT = 5.0


@dataclass
class JobResult:
    """One finished job: its spec, summary, and provenance."""

    spec: JobSpec
    summary: RunSummary
    elapsed: float
    from_cache: bool = False
    from_manifest: bool = False
    attempts: int = 1

    #: Discriminates successes from :class:`JobFailure` in a result list.
    ok: ClassVar[bool] = True


@dataclass
class JobFailure:
    """One job that failed after exhausting its retry budget.

    Takes a success's place in the result list under ``keep_going``:
    same ``spec`` / ``elapsed`` / provenance surface, but ``ok`` is
    False and ``summary`` is None.
    """

    spec: JobSpec
    error_type: str
    message: str
    attempts: int = 1
    transient: bool = False
    timed_out: bool = False
    worker_died: bool = False
    traceback: str = ""
    elapsed: float = 0.0
    from_cache: bool = False
    from_manifest: bool = False

    ok: ClassVar[bool] = False
    summary: ClassVar[None] = None

    def exception(self) -> BaseException:
        """Rehydrate the failure as a raisable exception.

        Resolves the recorded type name against the library's exception
        modules and builtins; unknown types degrade to
        :class:`~repro.common.errors.JobError` carrying the original
        traceback text.
        """
        from repro.runner.faults import resolve_exception

        try:
            cls = resolve_exception(self.error_type)
            exc = cls(self.message)
        except Exception:
            exc = JobError(
                f"{self.error_type}: {self.message}\n{self.traceback}".rstrip()
            )
        return exc

    def describe(self) -> str:
        cause = "timed out" if self.timed_out else (
            "worker died" if self.worker_died else self.error_type
        )
        return (
            f"{self.spec.describe()}: {cause} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}"
        )


#: What a result list may contain.
JobOutcome = Union[JobResult, JobFailure]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_loop(conn, trace_store, fault_plan) -> None:
    """One worker slot: receive ``(index, attempt, spec)``, execute,
    reply ``("ok", ...)`` or ``("err", ...)``; ``None`` stops the loop.

    Exceptions cross the pipe pre-serialized (type name, message,
    traceback text, transient flag) so an unpicklable exception object
    can never poison the channel.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt, spec = message
        started = time.perf_counter()
        try:
            if fault_plan is not None:
                fault_plan.apply_worker(index, attempt)
            summary = spec.execute(trace_store=trace_store)
            payload = ("ok", index, attempt, summary, time.perf_counter() - started)
        except Exception as exc:
            payload = (
                "err",
                index,
                attempt,
                type(exc).__name__,
                str(exc),
                _traceback.format_exc(),
                is_transient(exc),
                time.perf_counter() - started,
            )
        try:
            conn.send(payload)
        except (OSError, ValueError):
            return


class _RunTraces:
    """The trace store of a runner that has none: one run's recordings
    in memory, keyed by trace hash, so the run captures each hierarchy
    once (per worker process) and frees them when it ends."""

    def __init__(self) -> None:
        self._traces = {}

    def get(self, spec: JobSpec):
        return self._traces.get(spec.trace_hash())

    def put(self, spec: JobSpec, traces) -> None:
        self._traces[spec.trace_hash()] = traces


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _Slot:
    """One supervised worker: a forked process plus its private pipe.

    The parent tracks exactly which job (and attempt) the slot holds,
    so a closed pipe or a blown deadline maps back to a specific job.
    """

    __slots__ = ("ctx", "worker_args", "process", "conn",
                 "index", "spec", "attempt", "deadline")

    def __init__(self, ctx, worker_args) -> None:
        self.ctx = ctx
        self.worker_args = worker_args
        self.process = None
        self.conn = None
        self.clear()
        self.spawn()

    # -- lifecycle -----------------------------------------------------
    def spawn(self) -> None:
        parent_conn, child_conn = self.ctx.Pipe()
        self.process = self.ctx.Process(
            target=_worker_loop, args=(child_conn, *self.worker_args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def respawn(self) -> None:
        """Replace a dead or wedged worker with a fresh one."""
        self.kill()
        self.clear()
        self.spawn()

    def kill(self) -> None:
        if self.process is not None:
            self.process.terminate()
            self.process.join(timeout=_JOIN_TIMEOUT)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=_JOIN_TIMEOUT)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        self.process = None
        self.conn = None

    def shutdown(self) -> None:
        """Best-effort graceful stop, then guarantee the process is gone
        (the SIGINT worker-leak fix lives here: the supervisor calls
        this in a ``finally``)."""
        if self.conn is not None and not self.busy:
            try:
                self.conn.send(None)
                self.process.join(timeout=_JOIN_TIMEOUT)
            except (OSError, ValueError):
                pass
        self.kill()

    # -- job bookkeeping -----------------------------------------------
    @property
    def busy(self) -> bool:
        return self.index is not None

    def clear(self) -> None:
        self.index = None
        self.spec = None
        self.attempt = None
        self.deadline = None

    def dispatch(self, index: int, spec: JobSpec, attempt: int,
                 timeout: Optional[float]) -> None:
        try:
            self.conn.send((index, attempt, spec))
        except (OSError, ValueError):
            # The worker died while idle; replace it and retry once.
            self.respawn()
            self.conn.send((index, attempt, spec))
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.deadline = (time.monotonic() + timeout) if timeout else None


class BatchRunner:
    """Runs :class:`JobSpec` grids under supervision.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs everything
        in-process.  Clamped to ``os.cpu_count()`` and the pending-job
        count.
    cache:
        A :class:`ResultCache` consulted before and fed after every
        simulation; ``None`` disables persistence.
    progress:
        Optional callback invoked (in the parent) once per landed job,
        including cache/manifest restores and (under ``keep_going``)
        failures.
    trace_store:
        A :class:`~repro.runner.traces.TraceStore` persisting recorded
        tap traces across runs; ``None`` keeps each :meth:`run`'s
        recordings in memory (per worker process) until the run ends,
        so a grid still captures each hierarchy once, just without
        cross-run reuse.
    retries:
        Re-dispatch budget per job for *transient* failures (I/O
        errors, corrupt traces, worker death, timeouts).  Deterministic
        failures never retry.
    timeout:
        Per-attempt wall-clock limit in seconds; the worker holding an
        overrunning job is killed and respawned.  Only enforced with
        worker processes (``effective_jobs > 1``).
    keep_going:
        Record failures as :class:`JobFailure` results and finish the
        grid instead of failing fast on the first exhausted job.
    retry_delay:
        Base of the exponential backoff (seconds); attempt *k* waits
        ``retry_delay * 2**(k-1)`` scaled by a deterministic jitter in
        [0.5, 1.0] derived from the job index.
    fault_plan:
        A :class:`~repro.runner.faults.FaultPlan` for chaos testing.
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
        retries: int = 0,
        timeout: Optional[float] = None,
        keep_going: bool = False,
        retry_delay: float = 0.25,
        fault_plan=None,
        manifest_dir=None,
        resume: Optional[str] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.trace_store = trace_store
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.keep_going = keep_going
        self.retry_delay = retry_delay
        self.fault_plan = fault_plan
        self.manifest_dir = manifest_dir
        self.resume = resume
        if resume is not None and manifest_dir is None:
            raise ConfigurationError("resume requires a manifest directory")
        #: Simulations actually executed (cache hits excluded) — the
        #: "zero new simulations on a warm cache" observable.
        self.simulations_run = 0
        self.cache_hits = 0
        #: Worker processes actually used by the last :meth:`run` after
        #: clamping to cpu_count and the pending-job count (1 = ran
        #: in-process).
        self.effective_jobs = 1
        #: Supervision counters for the last :meth:`run`.
        self.stats = GridStats()
        #: Manifest id of the last :meth:`run` (None without a manifest).
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    def _backoff(self, index: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5, 1.0]:
        the same (job, attempt) always waits the same time, so chaos
        tests and resumed runs are reproducible."""
        digest = hashlib.sha256(f"backoff:{index}:{attempt}".encode()).digest()
        jitter = 0.5 + digest[0] / 510.0
        return self.retry_delay * (2 ** (attempt - 1)) * jitter

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[JobSpec]) -> List[JobOutcome]:
        """Execute every spec; results come back in submission order.

        Each entry is a :class:`JobResult`, or — only under
        ``keep_going`` — a :class:`JobFailure`.  Without ``keep_going``
        the first job to exhaust its attempts raises (deterministic
        failures raise their original exception type).  SIGINT shuts
        the workers down, flushes the manifest, and raises
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
        if self.fault_plan is not None:
            self.fault_plan.arm()

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

        def record(index: int, summary: RunSummary, elapsed: float,
                   attempts: int = 1) -> None:
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
            land(index, JobResult(spec, summary, elapsed=elapsed, attempts=attempts))

        def heartbeat(spec: JobSpec, attempt: int,
                      worker: Optional[int] = None) -> None:
            if manifest is not None:
                manifest.record_heartbeat(
                    spec, attempt=attempt, worker=worker,
                    workers=self.effective_jobs,
                )

        def fail(index: int, failure: JobFailure,
                 cause: Optional[BaseException] = None) -> None:
            spec = specs[index]
            stats.failed += 1
            if failure.transient:
                stats.transient_failures += 1
            else:
                stats.deterministic_failures += 1
            stats.failure_labels.append(failure.describe())
            if manifest is not None:
                manifest.record_failure(spec, failure)
            if not self.keep_going:
                raise cause if cause is not None else failure.exception()
            land(index, failure)

        try:
            pending: List[Tuple[int, JobSpec]] = []
            for index, spec in enumerate(specs):
                if self.fault_plan is not None:
                    self.fault_plan.apply_parent(
                        index, spec, cache=self.cache, trace_store=self.trace_store
                    )
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

            # The cpu-count clamp is a throughput heuristic; it yields
            # when supervision *requires* process isolation — a hung
            # job can only be killed, and a crash only survived, in a
            # worker process.
            needs_workers = self.timeout is not None or self.fault_plan is not None
            limit = len(pending) if needs_workers else min(
                len(pending), os.cpu_count() or 1
            )
            workers = min(self.jobs, limit)
            # Record the clamp only when the pool (CPU count, fork
            # support) bound us, not when there were simply fewer
            # pending jobs than requested workers.
            if self.jobs > workers and len(pending) > workers:
                stats.requested_jobs = self.jobs
            if pending:
                self.effective_jobs = max(1, workers)
                traces = self.trace_store if self.trace_store is not None else _RunTraces()
                if workers > 1 and _fork_available():
                    self._run_supervised(pending, workers, traces, record, fail, heartbeat)
                else:
                    self.effective_jobs = 1
                    self._run_serial(pending, traces, record, fail, heartbeat)
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
    # in-process execution (jobs=1 or no fork)
    # ------------------------------------------------------------------
    def _run_serial(self, pending, traces, record, fail, heartbeat) -> None:
        for index, spec in pending:
            attempt = 1
            while True:
                heartbeat(spec, attempt)
                started = time.perf_counter()
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply_worker(index, attempt)
                    summary = spec.execute(trace_store=traces)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    elapsed = time.perf_counter() - started
                    if is_transient(exc) and attempt <= self.retries:
                        self.stats.retries += 1
                        time.sleep(self._backoff(index, attempt))
                        attempt += 1
                        continue
                    fail(
                        index,
                        JobFailure(
                            spec=spec,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            traceback=_traceback.format_exc(),
                            attempts=attempt,
                            transient=is_transient(exc),
                            elapsed=elapsed,
                        ),
                        cause=exc,
                    )
                    break
                record(index, summary, time.perf_counter() - started,
                       attempts=attempt)
                break

    # ------------------------------------------------------------------
    # supervised worker-pool execution
    # ------------------------------------------------------------------
    def _run_supervised(self, pending, workers: int, traces, record, fail,
                        heartbeat) -> None:
        ctx = multiprocessing.get_context("fork")
        worker_args = (traces, self.fault_plan)
        queue = deque((index, spec, 1) for index, spec in pending)
        #: (ready_at, index, next_attempt, spec) — delayed retries.
        delayed: list = []
        slots = [_Slot(ctx, worker_args) for _ in range(workers)]
        try:
            while queue or delayed or any(slot.busy for slot in slots):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt, spec = heapq.heappop(delayed)
                    queue.append((index, spec, attempt))
                for slot_index, slot in enumerate(slots):
                    if not slot.busy and queue:
                        index, spec, attempt = queue.popleft()
                        heartbeat(spec, attempt, worker=slot_index)
                        slot.dispatch(index, spec, attempt, self.timeout)

                busy = [slot for slot in slots if slot.busy]
                if not busy:
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue

                wait_for = None
                wakeups = [slot.deadline for slot in busy if slot.deadline is not None]
                if delayed:
                    wakeups.append(delayed[0][0])
                if wakeups:
                    wait_for = max(0.0, min(wakeups) - time.monotonic())
                ready = _connection_wait(
                    [slot.conn for slot in busy], timeout=wait_for
                )
                for conn in ready:
                    slot = next(s for s in slots if s.conn is conn)
                    self._drain_slot(slot, record, fail, delayed)

                now = time.monotonic()
                for slot in slots:
                    if slot.busy and slot.deadline is not None and now >= slot.deadline:
                        self._expire_slot(slot, fail, delayed)
        finally:
            # Whatever ends the loop — completion, a fail-fast raise, or
            # SIGINT — no worker process survives it.
            for slot in slots:
                slot.shutdown()

    def _drain_slot(self, slot: _Slot, record, fail, delayed) -> None:
        index, spec, attempt = slot.index, slot.spec, slot.attempt
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            # Hard worker death mid-job (segfault / OOM-kill / chaos
            # crash): respawn the slot, re-dispatch or fail the job.
            exitcode = slot.process.exitcode if slot.process is not None else None
            self.stats.worker_deaths += 1
            slot.respawn()
            self._retry_or_fail(
                index, spec, attempt, fail, delayed,
                error_type="WorkerDied",
                message=f"worker process died (exit code {exitcode})",
                worker_died=True,
            )
            return
        slot.clear()
        kind = message[0]
        if kind == "ok":
            _, index, attempt, summary, elapsed = message
            record(index, summary, elapsed, attempts=attempt)
            return
        _, index, attempt, error_type, text, tb, transient, elapsed = message
        if transient and attempt <= self.retries:
            self.stats.retries += 1
            heapq.heappush(
                delayed,
                (time.monotonic() + self._backoff(index, attempt),
                 index, attempt + 1, spec),
            )
            return
        fail(index, JobFailure(
            spec=spec, error_type=error_type, message=text, traceback=tb,
            attempts=attempt, transient=transient, elapsed=elapsed,
        ))

    def _expire_slot(self, slot: _Slot, fail, delayed) -> None:
        """Kill a worker whose job blew its wall-clock deadline."""
        index, spec, attempt = slot.index, slot.spec, slot.attempt
        self.stats.timeouts += 1
        slot.respawn()
        self._retry_or_fail(
            index, spec, attempt, fail, delayed,
            error_type="JobTimeout",
            message=f"job exceeded {self.timeout}s wall clock",
            timed_out=True,
        )

    def _retry_or_fail(self, index, spec, attempt, fail, delayed,
                       error_type, message, **flags) -> None:
        """Shared tail for worker-death and timeout: both transient."""
        if attempt <= self.retries:
            self.stats.retries += 1
            heapq.heappush(
                delayed,
                (time.monotonic() + self._backoff(index, attempt),
                 index, attempt + 1, spec),
            )
            return
        fail(index, JobFailure(
            spec=spec, error_type=error_type, message=message,
            attempts=attempt, transient=True, **flags,
        ))

    # ------------------------------------------------------------------
    def run_labelled(self, specs: Sequence[JobSpec]) -> dict:
        """Like :meth:`run`, keyed by each spec's label (or describe()).

        Duplicate labels would silently overwrite each other's results,
        so they raise :class:`ConfigurationError` up front.  Under
        ``keep_going`` a failed job maps to ``None`` (its
        ``JobFailure.summary``).
        """
        labels = [spec.label or spec.describe() for spec in specs]
        seen = set()
        duplicates = sorted({label for label in labels
                             if label in seen or seen.add(label)})
        if duplicates:
            raise ConfigurationError(
                f"duplicate job labels would overwrite results: {duplicates}"
            )
        return {
            label: job.summary
            for label, job in zip(labels, self.run(specs))
        }
