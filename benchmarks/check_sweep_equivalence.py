"""CI gate: the compiled sweep engine must match the scalar oracle.

Run as a script::

    PYTHONPATH=src python benchmarks/check_sweep_equivalence.py

Executes a grid of uncoupled miss-rate sweeps — several workloads
(lock-heavy RAYTRACE included), fully-/set-associative and
direct-mapped banks, with and without ``max_refs_per_node``
truncation — three ways per case: the compiled sweep engine
(capture mode + one ``fs_bank_run`` per recorded stream), the scalar
reference engine (``fast=False``), and the record/replay pipeline
(``JobSpec.execute(replay=True)``, whose capture half also rides the
compiled engine).  Every pair of :class:`RunSummary` serializations
must be bit-identical — every tap's miss count at every size ×
organization (which covers all five schemes: each scheme reads its
miss rate off one tap), time breakdowns, counters, histograms.  The
only allowed difference is the engine-provenance pair
(``backend``/``fallback_reason``).

The check honours ``REPRO_NO_COMPILED``, so CI runs it against both
backends.  When the
compiled backend is unavailable both passes run scalar; the check then
degrades to a determinism check and says so.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams, make_workload
from repro.analysis import run_miss_sweep
from repro.core.timing_kernels import backend_status
from repro.core.tlb import Organization
from repro.runner import JobSpec
from repro.runner.summary import RunSummary

PARAMS = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)

FA = Organization.FULLY_ASSOCIATIVE
SA = Organization.SET_ASSOCIATIVE
DM = Organization.DIRECT_MAPPED

#: (workload, intensity, sizes, orgs, max_refs_per_node)
CASES = (
    ("radix", 0.3, (8, 32, 128), (FA, SA, DM), 400),
    ("raytrace", 0.5, (8, 32), (FA, DM), 400),
    ("fft", 0.3, (8, 64), (FA, SA), None),
    ("ocean", 0.2, (16, 128), (SA, DM), 300),
)


def comparable(summary) -> dict:
    """The run's full serialized surface minus the engine tags."""
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def main() -> int:
    status = backend_status()
    print(f"sweep equivalence check (compiled backend: {status})", flush=True)

    failures = []
    checked = 0
    compiled_runs = 0
    for name, intensity, sizes, orgs, max_refs in CASES:
        label = (f"{name}@{intensity}/{'x'.join(str(s) for s in sizes)}"
                 f"{f'/refs={max_refs}' if max_refs else ''}")
        fast = RunSummary.from_result(
            run_miss_sweep(
                PARAMS, make_workload(name, intensity=intensity),
                sizes=sizes, orgs=orgs, max_refs_per_node=max_refs,
            )
        )
        scalar = RunSummary.from_result(
            run_miss_sweep(
                PARAMS, make_workload(name, intensity=intensity),
                sizes=sizes, orgs=orgs, max_refs_per_node=max_refs,
                fast=False,
            )
        )
        spec = JobSpec.sweep(
            PARAMS, name, sizes=sizes, orgs=orgs,
            max_refs_per_node=max_refs, overrides={"intensity": intensity},
        )
        replayed = spec.execute(replay=True)
        checked += 1
        compiled_runs += fast.backend == "compiled"
        oracle = comparable(scalar)
        if comparable(fast) != oracle:
            failures.append(f"{label}: fast ({fast.backend}) != scalar")
        if comparable(replayed) != oracle:
            failures.append(f"{label}: replay ({replayed.backend}) != scalar")

    if failures:
        print(f"FAIL: {len(failures)} of {checked} cases diverged:")
        for line in failures:
            print(f"  {line}")
        return 1
    if compiled_runs == 0:
        print(f"OK (degraded): {checked} scalar sweeps deterministic (replay "
              f"included), but the compiled backend never ran ({status})")
    else:
        print(f"OK: {checked} sweep cases bit-identical across "
              f"fast/scalar/replay ({compiled_runs} on the compiled engine)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
