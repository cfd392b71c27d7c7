"""CI gate: the compiled timing fast path must match the scalar oracle.

Run as a script::

    PYTHONPATH=src python benchmarks/check_timing_equivalence.py

Executes a grid of coupled timing runs — every translation scheme,
fully-associative and direct-mapped structures, a sync-heavy workload
mix (RAYTRACE's lock contention included), with and without
``max_refs_per_node`` truncation, with and without the crossbar's
port-contention model — twice: once preferring the compiled
columnar engine and once forced onto the scalar reference engine
(``fast=False``).  Every pair of :class:`RunSummary` serializations
must be bit-identical (total time, per-node breakdowns, all counters,
TLB/DLB statistics, latency histograms); the only allowed difference
is the ``backend`` tag itself.  The traced rows attach a file-backed
:class:`~repro.obs.trace.Tracer` to both runs and require the JSONL
bytes to match as well: the compiled engine writes the tracer's packed
records itself, barrier and lock events included, so these rows drive
its trace buffer through growth and repeated drains.

Every ``CASES`` row also runs a third time as a runner job
(``JobSpec.execute``), which reads its summary straight from the
compiled engine without building a machine; that summary must equal
the scalar run's too.

The check honours ``REPRO_NO_COMPILED``, so CI runs it against both
backends.  When the
compiled backend is unavailable (missing gcc/cffi, or ``REPRO_NO_COMPILED``
set) both passes run scalar; the check then degrades to a determinism
check and says so — still worth running, but the compiled legs are the
ones that prove the tentpole contract.  While the backend is
available, a case that still runs scalar fails the gate: every case
here is one the compiled engine models.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams, Scheme, make_workload
from repro.analysis import run_timing
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import backend_status, get_backend
from repro.core.tlb import Organization
from repro.obs import Tracer
from repro.runner import JobSpec
from repro.runner.summary import RunSummary

PARAMS = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)
#: (workload, intensity, entries, organization, max_refs_per_node, contention)
CASES = (
    ("radix", 0.3, 8, Organization.FULLY_ASSOCIATIVE, None, False),
    ("raytrace", 0.5, 8, Organization.FULLY_ASSOCIATIVE, None, False),
    ("raytrace", 0.5, 8, Organization.DIRECT_MAPPED, 300, False),
    ("ocean", 0.2, 16, Organization.FULLY_ASSOCIATIVE, 250, False),
    ("raytrace", 0.5, 8, Organization.FULLY_ASSOCIATIVE, None, True),
    ("ocean", 0.2, 16, Organization.FULLY_ASSOCIATIVE, 250, True),
)
#: (scheme, workload, intensity, entries) run with a JSONL tracer.
#: Radix has barriers; raytrace adds the ``sim.lock`` records and the
#: lock-word stores' ``ref`` spans.
TRACED_CASES = (
    (Scheme.V_COMA, "radix", 0.3, 8),
    (Scheme.L2_TLB, "radix", 0.3, 8),
    (Scheme.V_COMA, "raytrace", 0.5, 8),
    (Scheme.L0_TLB, "raytrace", 0.5, 8),
)


def comparable(result) -> dict:
    """The run's full serialized surface minus the engine tags."""
    summary = result if isinstance(result, RunSummary) else RunSummary.from_result(result)
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def traced_run(scheme, name, intensity, entries, fast, path):
    """One traced timing run; returns (result, JSONL bytes)."""
    with Tracer(path) as tracer:
        result = run_timing(
            PARAMS, scheme, make_workload(name, intensity=intensity), entries,
            tracer=tracer, fast=fast,
        )
    with open(path, "rb") as handle:
        return result, handle.read()


def main() -> int:
    status = backend_status()
    compiled_expected = get_backend() is not None
    print(f"timing equivalence check (timing backend: {status})", flush=True)

    failures = []
    checked = 0
    compiled_runs = 0
    for scheme in SCHEME_ORDER:
        for name, intensity, entries, org, max_refs, contention in CASES:
            label = (f"{scheme.value}/{name}@{intensity}"
                     f"{org.suffix or '/FA'}"
                     f"{f'/refs={max_refs}' if max_refs else ''}"
                     f"{'/contention' if contention else ''}")
            kwargs = dict(
                organization=org, max_refs_per_node=max_refs,
                contention=contention,
            )
            fast = run_timing(
                PARAMS, scheme, make_workload(name, intensity=intensity),
                entries, **kwargs
            )
            scalar = run_timing(
                PARAMS, scheme, make_workload(name, intensity=intensity),
                entries, fast=False, **kwargs
            )
            job = JobSpec.timing(
                PARAMS, scheme, name, entries,
                overrides={"intensity": intensity}, **kwargs
            ).execute()
            for engine, run in (("fast", fast), ("job", job)):
                checked += 1
                compiled_runs += run.backend == "compiled"
                if comparable(run) != comparable(scalar):
                    failures.append(f"{label}: {engine} ({run.backend}) != scalar")
                elif compiled_expected and run.backend != "compiled":
                    failures.append(
                        f"{label}: {engine} ran {run.backend} "
                        f"({run.fallback_reason}) with the compiled backend available"
                    )

    with tempfile.TemporaryDirectory() as scratch:
        for scheme, name, intensity, entries in TRACED_CASES:
            label = f"{scheme.value}/{name}@{intensity}/traced"
            fast, fast_trace = traced_run(
                scheme, name, intensity, entries, True,
                os.path.join(scratch, "fast.jsonl"),
            )
            scalar, scalar_trace = traced_run(
                scheme, name, intensity, entries, False,
                os.path.join(scratch, "scalar.jsonl"),
            )
            checked += 1
            compiled_runs += fast.backend == "compiled"
            if comparable(fast) != comparable(scalar):
                failures.append(f"{label}: fast ({fast.backend}) != scalar")
            elif fast_trace != scalar_trace:
                failures.append(
                    f"{label}: trace bytes differ ({len(fast_trace)} fast "
                    f"vs {len(scalar_trace)} scalar)"
                )
            elif compiled_expected and fast.backend != "compiled":
                failures.append(
                    f"{label}: ran {fast.backend} ({fast.fallback_reason}) "
                    f"with the compiled backend available"
                )

    if failures:
        print(f"FAIL: {len(failures)} of {checked} runs failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    if compiled_runs == 0:
        print(f"OK (degraded): {checked} scalar runs deterministic, but the "
              f"compiled backend never ran ({status})")
    else:
        print(f"OK: {checked} timing runs bit-identical "
              f"({compiled_runs} on the compiled engine)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
