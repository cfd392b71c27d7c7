"""CI gate: record-then-replay must match the scalar sweep oracle.

Run as a script::

    PYTHONPATH=src python benchmarks/check_replay_equivalence.py

Executes a tiny sweep grid through the record/replay pipeline twice
(with an on-disk trace store, so the write → read → replay path is
exercised too) and once through the scalar reference engine
(``run_miss_sweep(..., fast=False)``), and diffs every miss count, miss
rate and hierarchy counter.  The summaries must be equal except for the
engine-provenance pair (``backend``/``fallback_reason``), which is
checked on its own: the replayed summaries say ``...+replay`` and the
reference says ``scalar``.  Exits non-zero listing each divergence.
The recorded traces themselves are checked too: each workload's
capture (headless on the compiled engine) must serialize to the same
bytes as the scalar engine's capture once the provenance pair is
copied over.  The check honours ``REPRO_NO_COMPILED``, so CI runs it
against both the compiled batch replay kernel and the scalar
``TranslationBuffer`` path.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams, make_workload
from repro.analysis import run_miss_sweep
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME
from repro.core.timing_kernels import backend_status
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, TraceStore
from repro.runner.summary import RunSummary
from repro.system.taptrace import capture_tap_traces

PARAMS = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
WORKLOADS = ("radix", "fft")
SIZES = (8, 32, 128)
ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)
MAX_REFS = 500
INTENSITY = 0.2


def specs() -> list:
    return [
        JobSpec.sweep(
            PARAMS, name, sizes=SIZES, orgs=ORGS,
            max_refs_per_node=MAX_REFS,
            overrides={"intensity": INTENSITY}, label=name,
        )
        for name in WORKLOADS
    ]


def scalar_reference(name: str) -> RunSummary:
    """The coupled sweep on the scalar engine: the oracle."""
    return RunSummary.from_result(
        run_miss_sweep(
            PARAMS, make_workload(name, intensity=INTENSITY),
            sizes=SIZES, orgs=ORGS, max_refs_per_node=MAX_REFS, fast=False,
        )
    )


def comparable(summary) -> dict:
    """The run's full serialized surface minus the engine tags."""
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def main() -> int:
    print(f"replay equivalence check (compiled backend: {backend_status()})", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-equiv-traces-") as tmp:
        store = TraceStore(root=tmp)
        replayed = BatchRunner(jobs=1, trace_store=store, replay=True).run(specs())
        # Re-run against the store so the on-disk round trip is on the path.
        reloaded = BatchRunner(jobs=1, trace_store=store, replay=True).run(specs())
    scalar = [scalar_reference(name) for name in WORKLOADS]

    failures = []
    for fast, disk, slow in zip(replayed, reloaded, scalar):
        name = fast.spec.label
        fast_study = fast.summary.study_results()
        slow_study = slow.study_results()
        for scheme in SCHEME_ORDER:
            tap = TAP_OF_SCHEME[scheme]
            for size in SIZES:
                for org in ORGS:
                    want = slow_study.misses(tap, size, org)
                    got = fast_study.misses(tap, size, org)
                    if got != want:
                        failures.append(
                            f"{name}: {scheme.value} {size}{org.suffix or '/FA'} "
                            f"replay={got} scalar={want}"
                        )
        if comparable(fast.summary) != comparable(slow):
            failures.append(f"{name}: hierarchy summary diverged")
        if disk.summary.to_dict() != fast.summary.to_dict():
            failures.append(f"{name}: on-disk trace replay diverged from in-memory")
        for label, summary in (("replay", fast.summary), ("disk replay", disk.summary)):
            if not (summary.backend or "").endswith("+replay"):
                failures.append(f"{name}: {label} backend is {summary.backend!r}, not '...+replay'")
        if slow.backend != "scalar":
            failures.append(f"{name}: reference backend is {slow.backend!r}, not 'scalar'")

    for name in WORKLOADS:
        captures = [
            capture_tap_traces(
                PARAMS, make_workload(name, intensity=INTENSITY),
                max_refs_per_node=MAX_REFS, fast=fast,
            )
            for fast in (True, False)
        ]
        recorded, reference = captures
        reference.base.backend = recorded.base.backend
        reference.base.fallback_reason = recorded.base.fallback_reason
        if recorded.to_bytes() != reference.to_bytes():
            failures.append(f"{name}: captured trace bytes differ from the scalar capture")

    checked = len(WORKLOADS) * len(SCHEME_ORDER) * len(SIZES) * len(ORGS)
    if failures:
        print(f"FAIL: {len(failures)} mismatches out of {checked} design points:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"OK: {checked} design points bit-identical (plus summaries, trace "
        f"bytes, provenance and disk round-trip)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
