"""Per-home page tables (paper Sections 4.2-4.3).

In V-COMA each node hosts, in private memory, the page table for the
pages it is home to.  The table is *set-associative with the global page
set as the set*: all pages in one global page set compete for the
``P * K`` page slots of that set.  A hit yields the page's directory-page
base address; the protocol engine walks this table on DLB misses.

For the physical schemes the same structure maps virtual pages to
physical frames (the payload is just an integer either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.common.errors import TranslationFault


@dataclass
class PageTableEntry:
    """One virtual page's mapping and metadata.

    ``payload`` is the directory-page base (V-COMA / L3) or the physical
    frame number (physical schemes).
    """

    vpn: int
    payload: int
    referenced: bool = False
    modified: bool = False


class HomePageTable:
    """The page table of one home node, organized by global page set."""

    def __init__(self, node: int, global_page_sets: int) -> None:
        if global_page_sets <= 0:
            raise ValueError("global_page_sets must be positive")
        self.node = node
        self.global_page_sets = global_page_sets
        self._sets: Dict[int, Dict[int, PageTableEntry]] = {}
        self.walks = 0

    def _gps(self, vpn: int) -> int:
        return vpn & (self.global_page_sets - 1)

    def insert(self, entry: PageTableEntry) -> None:
        """Install a mapping (page-fault service path)."""
        bucket = self._sets.setdefault(self._gps(entry.vpn), {})
        bucket[entry.vpn] = entry

    def remove(self, vpn: int) -> PageTableEntry:
        """Unmap a page (page-out path); raises ``KeyError`` if absent."""
        bucket = self._sets.get(self._gps(vpn), {})
        entry = bucket.pop(vpn, None)
        if entry is None:
            raise KeyError(f"node {self.node}: VPN {vpn:#x} not mapped")
        return entry

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Probe without fault semantics; counts a table walk."""
        self.walks += 1
        return self._sets.get(self._gps(vpn), {}).get(vpn)

    def walk(self, vpn: int) -> PageTableEntry:
        """Full walk; raises :class:`TranslationFault` when unmapped
        (the page-fault case — never expected with preloaded data)."""
        entry = self.lookup(vpn)
        if entry is None:
            raise TranslationFault(
                f"page fault at home node {self.node}: VPN {vpn:#x} has no mapping"
            )
        return entry

    def resolve(self, vpn: int) -> int:
        """Resolver hook for the DLB: VPN -> payload."""
        return self.walk(vpn).payload

    def contains(self, vpn: int) -> bool:
        return vpn in self._sets.get(self._gps(vpn), {})

    def entries(self) -> Iterator[PageTableEntry]:
        for bucket in self._sets.values():
            yield from bucket.values()

    def entries_in_set(self, gps: int) -> Iterator[PageTableEntry]:
        yield from self._sets.get(gps, {}).values()

    def set_occupancy(self, gps: int) -> int:
        return len(self._sets.get(gps, {}))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets.values())

    def clear_reference_bits(self) -> None:
        """Periodic reference-bit reset (done by the protocol engine in
        V-COMA, paper Section 4.1)."""
        for entry in self.entries():
            entry.referenced = False
