"""Workload characterization: per-segment traffic profiles.

Answers "what does this workload actually do?" without running the
machine: reference counts and page footprints per segment, read/write
mix, lock activity, and barrier structure.  Used to sanity-check the
synthetic generators against their SPLASH-2 models (Table 1 of the
paper gives only total shared-memory sizes):
``tests/integration/test_workload_character.py`` pins each generator's
character with it, which DESIGN.md §2's substitution argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.workloads.base import Workload


@dataclass
class SegmentTraffic:
    """Aggregated references touching one segment."""

    name: str
    kind: str
    size: int
    reads: int = 0
    writes: int = 0
    lock_ops: int = 0
    pages: set = field(default_factory=set)

    @property
    def references(self) -> int:
        return self.reads + self.writes + self.lock_ops

    @property
    def write_fraction(self) -> float:
        data = self.reads + self.writes
        return self.writes / data if data else 0.0

    @property
    def distinct_pages(self) -> int:
        return len(self.pages)


@dataclass
class WorkloadProfile:
    """Whole-workload traffic summary."""

    workload: str
    nodes: int
    segments: Dict[str, SegmentTraffic]
    barriers: int = 0
    total_references: int = 0

    @property
    def write_fraction(self) -> float:
        reads = sum(s.reads for s in self.segments.values())
        writes = sum(s.writes for s in self.segments.values())
        return writes / (reads + writes) if reads + writes else 0.0

    @property
    def total_pages(self) -> int:
        return sum(s.distinct_pages for s in self.segments.values())

    def render(self) -> str:
        lines = [
            f"Workload profile — {self.workload} ({self.nodes} nodes, "
            f"{self.total_references:,} refs, {self.barriers} barrier arrivals, "
            f"{self.write_fraction * 100:.0f}% writes)",
            f"{'segment':<16}{'kind':<9}{'size':>10}{'refs':>10}"
            f"{'writes%':>9}{'pages':>8}",
        ]
        ordered = sorted(
            self.segments.values(), key=lambda s: s.references, reverse=True
        )
        for seg in ordered:
            lines.append(
                f"{seg.name:<16}{seg.kind:<9}{seg.size:>10,}{seg.references:>10,}"
                f"{seg.write_fraction * 100:>8.0f}%{seg.distinct_pages:>8,}"
            )
        return "\n".join(lines)


def profile_workload(
    params: MachineParams,
    workload: Workload,
    max_refs_per_node: Optional[int] = None,
) -> WorkloadProfile:
    """Walk every node's stream and attribute references to segments.

    No hierarchy is simulated — this is a pure static characterization
    of the generated streams (fast: dictionary lookups per event).
    """
    machine = Machine(params, Scheme.V_COMA, workload)
    page = params.page_size
    # page -> segment name lookup (segments are page-aligned spans).
    page_owner: Dict[int, str] = {}
    segments: Dict[str, SegmentTraffic] = {}
    for segment in machine.space:
        segments[segment.name] = SegmentTraffic(
            name=segment.name,
            kind=segment.kind.value,
            size=segment.size,
        )
        for vpn in segment.pages(page):
            page_owner[vpn] = segment.name

    profile = WorkloadProfile(
        workload=workload.name, nodes=params.nodes, segments=segments
    )
    for node in range(params.nodes):
        count = 0
        for op, value in machine.node_stream(node):
            if op == BARRIER:
                profile.barriers += 1
                continue
            seg = segments.get(page_owner.get(value // page, ""))
            if seg is None:
                continue
            if op == READ:
                seg.reads += 1
            elif op == WRITE:
                seg.writes += 1
            else:  # LOCK / UNLOCK
                seg.lock_ops += 1
            seg.pages.add(value // page)
            profile.total_references += 1
            count += 1
            if max_refs_per_node is not None and count >= max_refs_per_node:
                break
    return profile
