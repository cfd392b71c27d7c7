"""Segmented global virtual address space (paper Section 2.2.1).

The paper assumes a PowerPC-like segmented memory system in which
synonyms are neither needed nor allowed: every piece of data has exactly
one global virtual address, and sharing happens at segment granularity.
:class:`SegmentedAddressSpace` hands out non-overlapping segments with
caller-controlled alignment — alignment is load-bearing for the
reproduction because the RAYTRACE experiment (Figure 10, DLB/8/V2) turns
on a 32 KB vs 4 KB alignment of per-node private stacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.common.errors import ConfigurationError


class SegmentKind(enum.Enum):
    """How a segment is used; workloads tag segments so analyses can
    attribute traffic."""

    SHARED = "shared"
    PRIVATE = "private"
    CODE = "code"


@dataclass(frozen=True)
class Segment:
    """A naturally contiguous region of the global virtual space."""

    name: str
    base: int
    size: int
    kind: SegmentKind = SegmentKind.SHARED
    owner: Optional[int] = None  # node id for PRIVATE segments

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"segment {self.name}: size must be positive")
        if self.base < 0:
            raise ConfigurationError(f"segment {self.name}: negative base")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def address(self, offset: int) -> int:
        """Byte address at ``offset`` into the segment (bounds-checked)."""
        if not 0 <= offset < self.size:
            raise IndexError(
                f"segment {self.name}: offset {offset} outside size {self.size}"
            )
        return self.base + offset

    def pages(self, page_size: int) -> range:
        """Virtual page numbers the segment touches."""
        first = self.base // page_size
        last = (self.end - 1) // page_size
        return range(first, last + 1)

    def page_count(self, page_size: int) -> int:
        first = self.base // page_size
        last = (self.end - 1) // page_size
        return last - first + 1


class SegmentedAddressSpace:
    """Allocator of non-overlapping segments in one global space.

    Segments are allocated upward from ``base``; each allocation is
    aligned to ``alignment`` (default: page size), reproducing the
    virtual-layout effects the paper discusses in Sections 5.3 and 6.
    """

    def __init__(self, page_size: int, base: int = 1 << 32) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ConfigurationError("page_size must be a positive power of two")
        self.page_size = page_size
        self._cursor = self._align(base, page_size)
        self._segments: Dict[str, Segment] = {}

    @staticmethod
    def _align(value: int, alignment: int) -> int:
        return (value + alignment - 1) & ~(alignment - 1)

    def allocate(
        self,
        name: str,
        size: int,
        kind: SegmentKind = SegmentKind.SHARED,
        owner: Optional[int] = None,
        alignment: Optional[int] = None,
        offset: int = 0,
    ) -> Segment:
        """Carve a new segment out of the space.

        ``alignment`` must be a power of two ≥ the page size; it aligns
        the segment *base* (RAYTRACE's 32 KB padding alignment is
        expressed this way).  ``offset`` displaces the base by that many
        bytes *after* alignment (a structure field's position inside an
        aligned allocation); it must be page-aligned.
        """
        if name in self._segments:
            raise ConfigurationError(f"segment {name!r} already allocated")
        alignment = alignment or self.page_size
        if alignment < self.page_size or alignment & (alignment - 1):
            raise ConfigurationError(
                f"alignment {alignment} must be a power-of-two multiple of the page size"
            )
        if offset < 0 or offset % self.page_size:
            raise ConfigurationError("offset must be a non-negative page multiple")
        base = self._align(self._cursor, alignment) + offset
        segment = Segment(name=name, base=base, size=size, kind=kind, owner=owner)
        self._segments[name] = segment
        self._cursor = self._align(segment.end, self.page_size)
        return segment

    def __getitem__(self, name: str) -> Segment:
        return self._segments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments.values())

    def __len__(self) -> int:
        return len(self._segments)

    def segment_of(self, addr: int) -> Optional[Segment]:
        """The segment containing ``addr`` (linear scan; segments are
        few)."""
        for segment in self._segments.values():
            if segment.contains(addr):
                return segment
        return None

    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments.values())

    def total_pages(self) -> int:
        return sum(s.page_count(self.page_size) for s in self._segments.values())
