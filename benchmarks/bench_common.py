"""Shared configuration for the benchmark harness.

Every benchmark runs on the same scaled-down machine (8 nodes with the
paper's cache/AM geometry, 512-byte pages so data sets span thousands of
pages like the paper's do) and the six SPLASH-2-shaped workloads in the
paper's presentation order.  Simulations execute through the batch
runner (:mod:`repro.runner`): results are memoized in-process *and* in
the persistent on-disk result cache, so the four miss-count artifacts
(Figure 8, Figure 9, Table 2, Table 3) share one simulation each and a
re-run of the harness reuses every simulation from the previous one.

The shared runner runs serially and retries a transient job failure
(I/O error, corrupt trace) twice, so an unattended harness run survives
a flaky filesystem.  Environment knobs (the full list of ``REPRO_*``
switches is in ``docs/robustness.md``):

* ``REPRO_CACHE_DIR`` — relocate the persistent cache (honoured by
  :func:`repro.runner.default_cache_dir`; the tap-trace store lives
  under it).
* ``REPRO_NO_NUMPY`` — honoured by :mod:`repro.core.timing_kernels`:
  materializes reference columns as ``array.array`` even when numpy is
  importable.  ``REPRO_NO_COMPILED`` disables the compiled backend,
  so bank replay runs on the scalar ``TranslationBuffer``.
* ``REPRO_HISTORY_DIR`` — run-history store directory (default: the
  shared cache root).  ``bench_throughput.py`` appends one
  :class:`~repro.obs.history.HistoryEntry` per run there when asked
  (``--history-dir`` or this variable), feeding the ``repro history``
  regression detector; see ``docs/observability.md``.

Scaling note: absolute miss counts and percentages differ from the
paper's 32-node SPARC testbed; what the harness reproduces — and what
EXPERIMENTS.md records — are the orderings and effect directions.
"""

from __future__ import annotations

import functools
import os
from typing import Dict

from repro import MachineParams, Scheme, make_workload
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, ResultCache, TraceStore
from repro.system.taps import StudyResults
from repro.workloads import PAPER_ORDER

#: 8 nodes, 512 KB AM / 8 KB SLC / 2 KB FLC per node, 512 B pages.
BENCH_PARAMS = MachineParams.scaled_down(factor=8, nodes=8, page_size=512)

#: TLB/DLB sizes on Figure 8's x-axis / Table 2's columns.
SWEEP_SIZES = (8, 32, 128, 512)

#: Organizations swept for Figures 8/9.
SWEEP_ORGS = (Organization.FULLY_ASSOCIATIVE, Organization.DIRECT_MAPPED)

#: Runs execute each workload's COMPLETE stream — truncating would
#: distort the phase mix (e.g. cutting FFT during its TLB-friendly
#: local phase).  Stream lengths are instead controlled per workload:
#: these intensities give ~12-20k references per node on BENCH_PARAMS.
INTENSITY = {
    "radix": 0.45,
    "fft": 0.25,
    "fmm": 1.0,
    "ocean": 0.2,
    "raytrace": 3.0,
    "barnes": 1.0,
}

SWEEP_REFS = None
TIMING_REFS = None

BENCHMARKS = PAPER_ORDER

#: Rendered artifacts collected during the run; the benchmarks'
#: conftest prints them in the terminal summary (immune to pytest's
#: capture), so `pytest benchmarks/ --benchmark-only` always shows the
#: regenerated tables and figures.
REPORTS: list = []


def report(*lines: str) -> None:
    """Queue artifact text for the end-of-run report (also printed
    inline when pytest runs with -s)."""
    text = "\n".join(str(line) for line in lines)
    REPORTS.append(text)
    print(text)


def bench_workload(name: str, **overrides):
    """A paper benchmark instance sized for the bench machine."""
    overrides.setdefault("intensity", INTENSITY[name])
    return make_workload(name, **overrides)


@functools.lru_cache(maxsize=None)
def bench_runner() -> BatchRunner:
    """The harness's shared runner: serial, persistent cache + trace
    store, two retries per job."""
    return BatchRunner(cache=ResultCache(), trace_store=TraceStore(), retries=2)


def bench_history(root: str = None):
    """The run-history store the harness appends measured runs to.

    ``root`` (or ``REPRO_HISTORY_DIR``) overrides the location; the
    default is the shared cache root, so local bench runs and CI runs
    against a checked-out ``.history`` directory use the same code
    path.
    """
    from repro.obs.history import RunHistory

    return RunHistory(root or os.environ.get("REPRO_HISTORY_DIR") or None)


def record_bench_history(payload: dict, root: str = None):
    """Append one throughput-bench payload to the run history.

    Returns the recorded :class:`~repro.obs.history.HistoryEntry`; its
    config key hashes the bench machine shape and the smoke flag, so
    smoke and full runs keep separate trajectories.
    """
    from repro.obs.history import entry_from_bench

    return bench_history(root).append(entry_from_bench(payload))


def _sweep_spec(name: str) -> JobSpec:
    return JobSpec.sweep(
        BENCH_PARAMS,
        name,
        sizes=SWEEP_SIZES,
        orgs=SWEEP_ORGS,
        max_refs_per_node=SWEEP_REFS,
        overrides={"intensity": INTENSITY[name]},
        label=name,
    )


#: In-process memo for sweep studies; :func:`all_studies` fills it in
#: one batched runner call.
_STUDIES: Dict[str, StudyResults] = {}


def sweep_study(name: str) -> StudyResults:
    """The full-taps sweep for one benchmark.

    Simulated at most once — in this process via the memo, across
    processes via the persistent cache."""
    if name not in _STUDIES:
        (job,) = bench_runner().run([_sweep_spec(name)])
        _STUDIES[name] = job.summary.study_results()
    return _STUDIES[name]


def all_studies() -> Dict[str, StudyResults]:
    """Every benchmark's sweep, batched through one runner call."""
    missing = [name for name in BENCHMARKS if name not in _STUDIES]
    if missing:
        jobs = bench_runner().run([_sweep_spec(name) for name in missing])
        for name, job in zip(missing, jobs):
            _STUDIES[name] = job.summary.study_results()
    return {name: _STUDIES[name] for name in BENCHMARKS}


@functools.lru_cache(maxsize=None)
def timing_run(name: str, scheme_value: str, entries: int, org_value: str):
    """A coupled timing simulation, memoized in-process and on disk.

    Returns a :class:`~repro.runner.summary.RunSummary`, which exposes
    the same read surface as :class:`~repro.system.results.RunResult`.
    """
    spec = JobSpec.timing(
        BENCH_PARAMS,
        Scheme(scheme_value),
        name,
        entries,
        organization=Organization(org_value),
        max_refs_per_node=TIMING_REFS,
        overrides={"intensity": INTENSITY[name]},
    )
    (job,) = bench_runner().run([spec])
    return job.summary
