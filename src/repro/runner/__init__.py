"""Batch execution: job specs, a parallel runner, and a persistent cache.

The paper's artifacts (Figures 8-11, Tables 2-4) are produced by
embarrassingly parallel, fully deterministic simulations.  This package
turns each simulation into a picklable :class:`JobSpec`, fans a grid of
them across a pool of worker processes with :class:`BatchRunner`, and
memoizes finished runs on disk with :class:`ResultCache` so repeated
invocations of ``repro paper``, the single-cell commands, and the
benchmark harness never re-simulate a design point they have already
seen.

Quick start::

    from repro import MachineParams
    from repro.runner import BatchRunner, JobSpec, ResultCache

    params = MachineParams.scaled_down(factor=8, nodes=8, page_size=512)
    specs = [JobSpec.sweep(params, name) for name in ("ocean", "fft")]
    runner = BatchRunner(jobs=4, cache=ResultCache())
    for job in runner.run(specs):
        print(job.spec.workload, job.summary.study_results().curve(...))

Results come back as :class:`RunSummary` objects — the one form of a
finished run on either engine: picklable, JSON-serializable snapshots
of breakdowns, overhead ratios, sweep studies and timing summaries
that hold no machine.

Without ``keep_going`` the first job that raises fails the run with its
own exception; with it, failures land as structured :class:`JobFailure`
results and the grid finishes.  A worker process that dies mid-job
fails the run with :class:`~repro.common.errors.JobError` naming the
jobs in flight.  Given a manifest directory, an interrupted run resumes
with ``resume=run_id``, re-executing only the jobs missing from its
append-only manifest (:class:`RunManifest`).

Sweep jobs additionally run through a record-once/replay-many pipeline
(see :mod:`repro.system.taptrace` and ``docs/performance.md``): the
hierarchy simulation is recorded as per-tap page streams — persisted by
:class:`TraceStore` — and every TLB/DLB bank configuration is replayed
from the recording in one batched C call per stream, bit-identical to
the coupled scalar sweep.
"""

from repro.runner.batch import BatchRunner, JobFailure, JobResult
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.jobs import JobSpec
from repro.runner.manifest import (
    RunManifest,
    default_manifest_dir,
    list_runs,
    read_status,
)
from repro.runner.summary import GridStats, RunSummary
from repro.runner.traces import TraceStore, default_trace_dir

__all__ = [
    "BatchRunner",
    "GridStats",
    "JobFailure",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "RunManifest",
    "RunSummary",
    "TraceStore",
    "default_cache_dir",
    "default_manifest_dir",
    "default_trace_dir",
    "list_runs",
    "read_status",
]
