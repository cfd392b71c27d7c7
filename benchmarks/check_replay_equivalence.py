"""CI gate: record-then-replay must match the scalar sweep oracle.

Run as a script::

    PYTHONPATH=src python benchmarks/check_replay_equivalence.py

Executes a grid of miss sweeps — a 2-node and a 4-node machine,
lock-heavy RAYTRACE, an untruncated FFT stream, OCEAN, and
fully-/set-associative and direct-mapped banks — through the
record/replay pipeline twice (with an on-disk trace store, so the
write → read → replay path is exercised too), once through
``run_miss_sweep`` (whose compiled path is the same capture + batched
replay, with no trace store), and once through the scalar reference
engine (``run_miss_sweep(..., fast=False)``), and diffs every miss
count, miss rate and hierarchy counter.  The summaries must be equal
except for the engine-provenance pair (``backend``/``fallback_reason``),
which is checked on its own: the replayed summaries say ``...+replay``
and the reference says ``scalar``.  Exits non-zero listing each
divergence.  The recorded traces themselves are checked too: each
case's capture (headless on the compiled engine) must serialize to the
same bytes as the scalar engine's capture once the provenance pair is
copied over.  The check honours ``REPRO_NO_COMPILED``, so CI runs it
against both the compiled batch replay kernel and the scalar
``TranslationBuffer`` path; without the compiled backend it degrades
to a determinism check of the scalar engines and says so.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams, make_workload
from repro.analysis import run_miss_sweep
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME
from repro.core.timing_kernels import backend_status, get_backend
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, TraceStore
from repro.system.taptrace import capture_tap_traces

TWO_NODES = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
FOUR_NODES = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)

FA = Organization.FULLY_ASSOCIATIVE
SA = Organization.SET_ASSOCIATIVE
DM = Organization.DIRECT_MAPPED

#: (label, params, workload, intensity, sizes, orgs, max_refs_per_node)
CASES = (
    ("radix@2", TWO_NODES, "radix", 0.2, (8, 32, 128), (FA, SA, DM), 500),
    ("fft@2", TWO_NODES, "fft", 0.2, (8, 32, 128), (FA, SA, DM), 500),
    ("radix@4", FOUR_NODES, "radix", 0.3, (8, 32, 128), (FA, SA, DM), 400),
    ("raytrace@4", FOUR_NODES, "raytrace", 0.5, (8, 32), (FA, DM), 400),
    ("fft@4/untruncated", FOUR_NODES, "fft", 0.3, (8, 64), (FA, SA), None),
    ("ocean@4", FOUR_NODES, "ocean", 0.2, (16, 128), (SA, DM), 300),
)


def specs() -> list:
    return [
        JobSpec.sweep(
            params, name, sizes=sizes, orgs=orgs,
            max_refs_per_node=max_refs,
            overrides={"intensity": intensity}, label=label,
        )
        for label, params, name, intensity, sizes, orgs, max_refs in CASES
    ]


def direct_sweep(case, fast: bool):
    """``run_miss_sweep`` of one case; ``fast=False`` is the oracle."""
    _, params, name, intensity, sizes, orgs, max_refs = case
    return run_miss_sweep(
        params, make_workload(name, intensity=intensity),
        sizes=sizes, orgs=orgs, max_refs_per_node=max_refs, fast=fast,
    )


def comparable(summary) -> dict:
    """The run's full serialized surface minus the engine tags."""
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def main() -> int:
    status = backend_status()
    print(f"replay equivalence check (compiled backend: {status})", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-equiv-traces-") as tmp:
        store = TraceStore(root=tmp)
        replayed = BatchRunner(jobs=1, trace_store=store).run(specs())
        # Re-run against the store so the on-disk round trip is on the path.
        reloaded = BatchRunner(jobs=1, trace_store=store).run(specs())

    failures = []
    checked = 0
    for case, fast, disk in zip(CASES, replayed, reloaded):
        label, _, _, _, sizes, orgs, _ = case
        slow = direct_sweep(case, fast=False)
        direct = direct_sweep(case, fast=True)
        fast_study = fast.summary.study_results()
        slow_study = slow.study_results()
        for scheme in SCHEME_ORDER:
            tap = TAP_OF_SCHEME[scheme]
            for size in sizes:
                for org in orgs:
                    checked += 1
                    want = slow_study.misses(tap, size, org)
                    got = fast_study.misses(tap, size, org)
                    if got != want:
                        failures.append(
                            f"{label}: {scheme.value} {size}{org.suffix or '/FA'} "
                            f"replay={got} scalar={want}"
                        )
        oracle = comparable(slow)
        if comparable(fast.summary) != oracle:
            failures.append(f"{label}: replayed summary diverged from scalar")
        if comparable(direct) != oracle:
            failures.append(f"{label}: run_miss_sweep ({direct.backend}) diverged from scalar")
        if disk.summary.to_dict() != fast.summary.to_dict():
            failures.append(f"{label}: on-disk trace replay diverged from in-memory")
        for leg, summary in (("replay", fast.summary), ("disk replay", disk.summary)):
            if not (summary.backend or "").endswith("+replay"):
                failures.append(f"{label}: {leg} backend is {summary.backend!r}, not '...+replay'")
        expected_direct = "compiled+replay" if get_backend() is not None else "scalar"
        if direct.backend != expected_direct:
            failures.append(
                f"{label}: run_miss_sweep backend is {direct.backend!r}, not {expected_direct!r}"
            )
        if slow.backend != "scalar":
            failures.append(f"{label}: reference backend is {slow.backend!r}, not 'scalar'")

        _, params, name, intensity, _, _, max_refs = case
        recorded, reference = (
            capture_tap_traces(
                params, make_workload(name, intensity=intensity),
                max_refs_per_node=max_refs, fast=fast_capture,
            )
            for fast_capture in (True, False)
        )
        reference.base.backend = recorded.base.backend
        reference.base.fallback_reason = recorded.base.fallback_reason
        if recorded.to_bytes() != reference.to_bytes():
            failures.append(f"{label}: captured trace bytes differ from the scalar capture")

    if failures:
        print(f"FAIL: {len(failures)} mismatches ({len(CASES)} cases, {checked} design points):")
        for line in failures:
            print(f"  {line}")
        return 1
    degraded = "" if get_backend() is not None else f" (degraded: scalar engines only, {status})"
    print(
        f"OK: {len(CASES)} cases, {checked} design points bit-identical (plus "
        f"summaries, run_miss_sweep, trace bytes, provenance and disk "
        f"round-trip){degraded}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
