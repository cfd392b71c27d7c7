"""Paper-style text tables (Tables 2, 3 and 4)."""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from repro.core.schemes import SCHEME_ORDER, Scheme, TAP_OF_SCHEME
from repro.core.tlb import Organization
from repro.runner.summary import RunSummary
from repro.system.taps import StudyResults
from repro.analysis.experiments import equivalent_tlb_size


def _format_rate(rate: float) -> str:
    percent = rate * 100.0
    if percent >= 0.01:
        return f"{percent:.2f}"
    if percent == 0.0:
        return "0"
    return f"{percent:.4f}"


def render_miss_rate_table(
    studies: Mapping[str, StudyResults],
    sizes: Sequence[int] = (8, 32, 128),
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> str:
    """Table 2: TLB/DLB miss rates per processor reference (%).

    ``studies`` maps benchmark name -> sweep results; one row per
    benchmark, five scheme columns per size.
    """
    header_parts = ["SYSTEM".ljust(10)]
    for size in sizes:
        for scheme in SCHEME_ORDER:
            label = "V-COMA" if scheme is Scheme.V_COMA else scheme.value.split("-")[0]
            header_parts.append(f"{label}/{size}".rjust(10))
    lines = ["Table 2: TLB/DLB Miss Rates Per Processor Reference (%)", "".join(header_parts)]
    for name, study in studies.items():
        parts = [name.upper().ljust(10)]
        for size in sizes:
            for scheme in SCHEME_ORDER:
                rate = study.miss_rate(TAP_OF_SCHEME[scheme], size, org)
                parts.append(_format_rate(rate).rjust(10))
        lines.append("".join(parts))
    return "\n".join(lines)


def render_equivalent_size_table(
    studies: Mapping[str, StudyResults],
    dlb_entries: int = 8,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> str:
    """Table 3: TLB size equivalent to an ``dlb_entries``-entry DLB."""
    tlb_schemes = [s for s in SCHEME_ORDER if s is not Scheme.V_COMA]
    header = "BENCH".ljust(10) + "".join(s.value.rjust(10) for s in tlb_schemes)
    lines = [f"Table 3: TLB Size Equivalent to a {dlb_entries}-entry DLB", header]
    for name, study in studies.items():
        target = study.misses(TAP_OF_SCHEME[Scheme.V_COMA], dlb_entries, org)
        parts = [name.upper().ljust(10)]
        for scheme in tlb_schemes:
            size = equivalent_tlb_size(study, TAP_OF_SCHEME[scheme], target, org)
            if math.isinf(size):
                biggest = max(study.sizes)
                parts.append(f">{biggest}".rjust(10))
            else:
                parts.append(f"{size:.0f}".rjust(10))
        lines.append("".join(parts))
    return "\n".join(lines)


def render_overhead_table(
    rows: Mapping[str, Mapping[str, RunSummary]],
) -> str:
    """Table 4: address translation time / total memory stall time (%).

    ``rows`` maps a configuration label (e.g. ``"L0-TLB/8"``) to
    ``{benchmark: RunSummary}``.
    """
    benchmarks: List[str] = []
    for per_bench in rows.values():
        for name in per_bench:
            if name not in benchmarks:
                benchmarks.append(name)
    header = "CONFIG".ljust(12) + "".join(b.upper().rjust(10) for b in benchmarks)
    lines = ["Table 4: Address Translation Time / Total Stall Time (%)", header]
    for label, per_bench in rows.items():
        parts = [label.ljust(12)]
        for bench in benchmarks:
            result = per_bench.get(bench)
            if result is None:
                parts.append("-".rjust(10))
            else:
                parts.append(f"{result.translation_overhead_ratio() * 100:.2f}".rjust(10))
        lines.append("".join(parts))
    return "\n".join(lines)
